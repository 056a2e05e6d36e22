"""The build path of the compiled element kernels (``sembox.kernels``).

Every test that builds runs in a fresh interpreter whose
``XDG_CACHE_HOME`` is an empty temporary directory, so it never reads
or writes the user's cache.
"""

import os
import subprocess

import pytest

from sembox.cli import EXIT_BUILD, EXIT_CONFIG, EXIT_DIVERGED, EXIT_FAULT
from sembox.cli import main
from sembox.kernels import FLAGS, MAX_NODES, SOURCE, STDERR_TAIL, compiler, load

RUN = """
import sys
from sembox.cli import main
sys.exit(main({argv!r}))
"""
SMALL_RUN = ["run", "--nx", "2", "--ny", "2", "--layers", "2", "--steps", "2"]


@pytest.fixture
def cache(tmp_path):
    """An empty cache directory, as ``XDG_CACHE_HOME``."""
    path = tmp_path / "cache"
    path.mkdir()
    return str(path)


@pytest.fixture
def no_compiler(tmp_path):
    """A ``PATH`` that holds no program."""
    path = tmp_path / "empty-path"
    path.mkdir()
    return str(path)


def built(cache):
    return sorted(os.listdir(os.path.join(cache, "sembox")))


def test_the_build_exit_code_is_its_own():
    assert EXIT_BUILD not in (0, EXIT_CONFIG, EXIT_DIVERGED, EXIT_FAULT)


def test_an_order_past_the_kernels_stack_is_refused(capsys):
    # the kernels hold an element on the stack: an order past the bound
    # is bad input, refused before anything is compiled
    with pytest.raises(ValueError, match="nodes per direction"):
        load(MAX_NODES + 1)
    assert main(["run", "--nx", "1", "--ny", "1", "--layers", "1",
                 "--steps", "1", "--order", str(MAX_NODES)]) == EXIT_CONFIG
    assert f"orders 1 to {MAX_NODES - 1}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [SMALL_RUN,
                                  ["scale", *SMALL_RUN[1:], "--parts", "1"]])
def test_without_a_compiler_run_and_scale_exit_with_the_build_code(
        run_python, cache, no_compiler, argv):
    proc = run_python(RUN.format(argv=argv), XDG_CACHE_HOME=cache,
                      PATH=no_compiler)
    assert proc.returncode == EXIT_BUILD, proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: cannot build the element kernels with ")
    assert repr(" ".join(compiler())) in line
    assert not os.path.exists(os.path.join(cache, "sembox")) or \
        built(cache) == []


def test_a_failing_compiler_reports_the_tail_of_its_errors(
        run_python, cache, tmp_path):
    # a stand-in compiler under the configured name that writes 30
    # numbered lines to standard error and fails
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    fake = bin_dir / compiler()[0]
    fake.write_text("#!/bin/sh\ni=1\nwhile [ $i -le 30 ]; do\n"
                    "  echo \"line $i\" >&2\n  i=$((i + 1))\ndone\nexit 1\n")
    fake.chmod(0o755)
    proc = run_python(RUN.format(argv=SMALL_RUN), XDG_CACHE_HOME=cache,
                      PATH=str(bin_dir))
    assert proc.returncode == EXIT_BUILD, proc.stderr
    lines = proc.stderr.splitlines()
    assert lines[0].startswith("error: cannot build the element kernels with ")
    assert "exit status 1" in lines[0]
    assert lines[1:] == [f"line {i}" for i in range(31 - STDERR_TAIL, 31)]
    assert built(cache) == []       # no half-built object is left


def test_a_warm_cache_runs_without_a_compiler(run_python, cache, no_compiler):
    script = RUN.format(argv=SMALL_RUN)
    cold = run_python(script, XDG_CACHE_HOME=cache)
    assert cold.returncode == 0, cold.stderr
    warm = run_python(script, XDG_CACHE_HOME=cache, PATH=no_compiler)
    assert warm.returncode == 0, warm.stderr
    final = [proc.stdout.splitlines()[-1] for proc in (cold, warm)]
    assert final[0].startswith("final diagnostics:")
    assert final[1] == final[0]
    (so,) = built(cache)
    assert so.startswith("kernels-n4-") and so.endswith(".so")


COUNT_BUILDS = """
import subprocess
from sembox.harness import BubbleConfig, run_bubble

builds = []
run = subprocess.run
def counted(cmd, *args, **kwargs):
    builds.append(next(a for a in cmd if a.startswith("-DNN=")))
    return run(cmd, *args, **kwargs)
subprocess.run = counted
for order in (3, 2, 3):
    run_bubble(BubbleConfig(nx=2, ny=2, layers=2, n_steps=2, order=order),
               n_partitions=2)
print(" ".join(builds))
"""


def test_a_cold_two_worker_run_compiles_each_order_once(run_python, cache):
    proc = run_python(COUNT_BUILDS, XDG_CACHE_HOME=cache)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["-DNN=4", "-DNN=3"]
    names = built(cache)
    assert len(names) == 2 and all(n.endswith(".so") for n in names)


@pytest.mark.parametrize("order", range(1, 7))
def test_the_source_compiles_clean_with_warnings_as_errors(tmp_path, order):
    out = tmp_path / "kernels.so"
    proc = subprocess.run(
        [*compiler(), *FLAGS, "-Wall", "-Wextra", "-Werror",
         f"-DNN={order + 1}", SOURCE, "-o", str(out), "-lm"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
