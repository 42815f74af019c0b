import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sgdm_stability
from sgdm_stability.cli import EXIT_OK, main
from sgdm_stability.dataset import serialize_libsvm, synthetic_binary_dataset

SRC = Path(sgdm_stability.__file__).resolve().parents[1]


def test_readme_entry_points_import():
    # runs the python block under README's "Library entry points", so a name
    # the package no longer exports cannot linger in the docs
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library entry points", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert block.startswith("from sgdm_stability import (")
    exec(compile(block, "README.md", "exec"), {})


def test_one_data_representation():
    # rows live only in the CSR Dataset; no per-example classes are exported
    assert not hasattr(sgdm_stability, "Example")
    assert not hasattr(sgdm_stability, "SparseVector")
    assert {"indptr", "indices", "values", "labels", "dim"} <= set(
        sgdm_stability.Dataset.__dataclass_fields__
    )


# Runs in a fresh interpreter: imports the CLI, prints the names of the loaded
# modules as JSON, then runs the verb in argv (if any) and prints them again.
MODULES_PROBE = """
import json, sys
from sgdm_stability.cli import main

print(json.dumps(sorted(sys.modules)))
if len(sys.argv) > 1:
    assert main(sys.argv[1:]) == 0
    print(json.dumps(sorted(sys.modules)))
"""


def fresh_stdout(probe, *argv):
    """The stdout of `probe` run with argv in a fresh interpreter that imports the package from SRC."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    done = subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def modules_loaded(*argv):
    """The modules loaded after `import sgdm_stability.cli` and, with argv,
    after that verb runs, in a fresh interpreter."""
    return [json.loads(line) for line in fresh_stdout(MODULES_PROBE, *argv).splitlines() if line.startswith("[")]


def scipy_modules_loaded(*argv):
    return [[m for m in names if m.split(".")[0] == "scipy"] for names in modules_loaded(*argv)]


# the two scipy extension files the package loads on their own
SCIPY_EXTENSIONS = {"scipy.sparse._sparsetools", "scipy.special._special_ufuncs"}


def assert_only_extensions(loaded):
    # importing scipy.special or scipy.sparse costs about a quarter of a second,
    # so neither package module may load
    assert set(loaded) <= SCIPY_EXTENSIONS
    assert not {"scipy", "scipy.sparse", "scipy.special"} & set(loaded)


class TestScipyImportedOnFirstUse:
    """scipy costs about a third of a second to import, and no verb imports
    it: the coupled kernel's writes, the risk sum's sparse product and the
    logistic gradient scale load their routines from two extension files."""

    SYNTHETIC = ["dataset=synthetic", "synth_n=60", "synth_dim=5"]

    def test_import_and_run_stability_load_no_scipy(self, tmp_path):
        after_import, after_verb = scipy_modules_loaded(
            "run-stability", "--overrides", *self.SYNTHETIC, "reps=2", "epochs=1", "steps=0.01,0.1",
            f"outdir={tmp_path}",
        )
        # the kernel's compiled writes and its logistic scales load the
        # extensions at their first call
        assert after_import == []
        assert_only_extensions(after_verb)
        assert SCIPY_EXTENSIONS <= set(after_verb)

    @pytest.mark.parametrize("source", ["synthetic", "libsvm"])
    def test_check_bounds_loads_only_the_sparse_routine(self, tmp_path, source):
        # the risk sum loads scipy's CSR product routine from its extension
        # file, and the kernel's logistic scale the expit ufunc from its
        # own; neither the scipy package nor its subpackages are imported
        data = self.SYNTHETIC
        if source == "libsvm":
            path = tmp_path / "data.libsvm"
            path.write_text(serialize_libsvm(synthetic_binary_dataset(60, 5, seed=0)), encoding="utf-8")
            data = [f"dataset={path}"]
        after_import, after_verb = scipy_modules_loaded(
            "check-bounds", "--overrides", *data, "samples=2", "t=1n", f"outdir={tmp_path / 'out'}"
        )
        assert after_import == []
        assert_only_extensions(after_verb)

    def test_verify_invariants_loads_no_scipy(self, tmp_path):
        # the loss-lemma margins are the risk sum's product: on one CPU their
        # units run in this process, which then loads the routine too
        after_import, after_verb = scipy_modules_loaded(
            "verify-invariants", "--overrides", "check_steps=50", f"outdir={tmp_path}"
        )
        assert after_import == []
        assert_only_extensions(after_verb)


def test_import_loads_no_multiprocessing(tmp_path):
    # verify-invariants forks its workers with os.fork and talks to them
    # through pipes and pickle: neither the import nor the verb loads a
    # process pool, which would also load logging and queue
    pool = ("concurrent", "multiprocessing", "logging", "queue")
    after_import, after_verb = (
        [m for m in names if m.split(".")[0] in pool]
        for names in modules_loaded("verify-invariants", "--overrides", "check_steps=50", f"outdir={tmp_path}")
    )
    assert (after_import, after_verb) == ([], [])


def test_import_and_run_stability_load_no_thread_pool(tmp_path):
    # only check-bounds' risk sum runs threads; concurrent.futures would
    # also load logging and queue
    probe = (
        "import sys\nfrom sgdm_stability.cli import main\nassert main(sys.argv[1:]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'logging', 'queue')))"
    )
    stdout = fresh_stdout(
        probe, "run-stability", "--overrides", *TestScipyImportedOnFirstUse.SYNTHETIC, "reps=2", "epochs=1",
        "steps=0.01,0.1", f"outdir={tmp_path}",
    )
    assert stdout.splitlines()[-1] == "[]"


def test_check_bounds_loads_no_thread_pool(tmp_path):
    # the risk sum runs its blocks on plain threads, which numpy's import has
    # loaded already; a thread pool would load concurrent.futures, logging
    # and queue
    pool = ("concurrent", "logging", "queue")
    after_import, after_verb = (
        [m for m in names if m.split(".")[0] in pool]
        for names in modules_loaded(
            # two samples of 3n = 144 steps: 288 base iterates, two blocks
            "check-bounds", "--overrides", *TestScipyImportedOnFirstUse.SYNTHETIC, "samples=2", "t=3n",
            f"outdir={tmp_path}",
        )
    )
    assert (after_import, after_verb) == ([], [])


class TestVerbModulesImportedAtDispatch:
    """verification and plotting are compiled and imported only by the verbs
    that run them."""

    @pytest.mark.parametrize(
        "verb, argv",
        [
            ("run-stability", ["reps=2", "epochs=1", "steps=0.01,0.1"]),
            ("check-bounds", ["samples=2", "t=1n"]),
        ],
    )
    def test_import_run_stability_and_check_bounds_load_neither(self, tmp_path, verb, argv):
        loaded = modules_loaded(
            verb, "--overrides", *TestScipyImportedOnFirstUse.SYNTHETIC, *argv, f"outdir={tmp_path}"
        )
        for names in loaded:
            assert not {"sgdm_stability.verification", "sgdm_stability.plotting"} & set(names)
        assert len(loaded) == 2

    def test_package_resolves_them_on_first_use(self):
        probe = (
            "import sgdm_stability as p\n"
            "from sgdm_stability import run_invariant_suite\n"
            "print(run_invariant_suite is p.run_invariant_suite, p.CheckOutcome.__module__)"
        )
        assert fresh_stdout(probe) == "True sgdm_stability.verification\n"


RECIPE = ["recipe", "--overrides", "n=100", "beta=0.5", "l_star=0.1", "alpha=1"]


def test_entry_freezes_the_objects_imports_made():
    # read at exit, after entry() has left through sys.exit
    probe = (
        "import atexit, gc\n"
        "from sgdm_stability.cli import entry\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        "entry()\n"
    )
    assert fresh_stdout(probe, *RECIPE).splitlines()[-1] == "frozen True"


def test_main_does_not_freeze(capsys):
    # tests and library callers keep the normal collection
    before = gc.get_freeze_count()
    assert main(RECIPE) == EXIT_OK
    assert gc.get_freeze_count() == before
