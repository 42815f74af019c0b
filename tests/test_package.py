from pathlib import Path

import sgdm_stability


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
