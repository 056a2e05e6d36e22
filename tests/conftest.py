import os
import subprocess
import sys

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


def pytest_runtest_logreport(report):
    # one visible verdict line per acceptance criterion
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        verdict = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}.get(
            report.outcome, report.outcome.upper())
        print(f"\nACCEPTANCE {verdict}: {name}", flush=True)


@pytest.fixture
def run_python():
    """Run a script in a fresh interpreter that imports this ``sembox``
    and the tests' ``oracles``.

    Keyword arguments are set in its environment.  A fault that is not
    contained hangs a threaded run; the liveness timeout turns that into
    a failure instead of a stuck suite.
    """
    def run(script, **environ):
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, **environ, PYTHONPATH=os.pathsep.join(
            [SRC, TESTS] + ([path] if path else [])))
        return subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
    return run


@pytest.fixture
def recorded_gemms(monkeypatch):
    """Every GEMM ``contract`` issues, as (m, n, k), in a list: numpy's
    ``matmul`` seen from ``reference_element`` records each product of
    a batched call."""
    import numpy as np
    from sembox import reference_element

    gemms = []

    class Recording:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def matmul(a, b, out):
            batch = int(np.prod(np.broadcast_shapes(a.shape[:-2],
                                                    b.shape[:-2])))
            gemms.extend([(a.shape[-2], b.shape[-1], a.shape[-1])] * batch)
            return np.matmul(a, b, out=out)

    monkeypatch.setattr(reference_element, "np", Recording())
    return gemms
