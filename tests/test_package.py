import json
import os
import subprocess
import sys
from pathlib import Path

import sgdm_stability

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


# Runs in a fresh interpreter: imports the CLI, prints the loaded scipy
# modules as JSON, then runs the verb in argv (if any) and prints them again.
SCIPY_PROBE = """
import json, sys
from sgdm_stability.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

print(json.dumps(scipy_modules()))
if len(sys.argv) > 1:
    assert main(sys.argv[1:]) == 0
    print(json.dumps(scipy_modules()))
"""


def scipy_modules_loaded(*argv):
    """The scipy modules loaded after `import sgdm_stability.cli` and, with
    argv, after that verb runs, in a fresh interpreter."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines() if line.startswith("[")]


class TestScipyImportedOnFirstUse:
    """scipy costs about a third of a second to import; only the sparse risk
    sum needs it."""

    SYNTHETIC = ["dataset=synthetic", "synth_n=60", "synth_dim=5"]

    def test_import_and_run_stability_load_no_scipy(self, tmp_path):
        after_import, after_verb = scipy_modules_loaded(
            "run-stability", "--overrides", *self.SYNTHETIC, "reps=2", "epochs=1", "steps=0.01,0.1",
            f"outdir={tmp_path}",
        )
        assert after_import == []
        assert after_verb == []

    def test_check_bounds_loads_scipy_sparse_but_not_special(self, tmp_path):
        after_import, after_verb = scipy_modules_loaded(
            "check-bounds", "--overrides", *self.SYNTHETIC, "samples=2", "t=1n", f"outdir={tmp_path}"
        )
        assert after_import == []
        assert "scipy.sparse" in after_verb
        assert not [m for m in after_verb if m.startswith("scipy.special")]

    def test_verify_invariants_loads_no_scipy(self, tmp_path):
        after_import, after_verb = scipy_modules_loaded(
            "verify-invariants", "--overrides", "check_steps=50", f"outdir={tmp_path}"
        )
        assert after_import == []
        assert after_verb == []


def test_import_loads_no_multiprocessing():
    # verify-invariants imports its process pool only when it runs
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    probe = "import sys, sgdm_stability.cli; print(sorted(m for m in sys.modules if 'multiprocessing' in m))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
