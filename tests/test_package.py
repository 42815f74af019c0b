import sgdm_stability


def test_readme_entry_points_import():
    from sgdm_stability import (  # noqa: F401
        ExperimentConfig,
        HyperParams,
        SampleStream,
        check_stab_condition,
        coupled_distance_batch,
        coupled_run,
        hb_params,
        load_libsvm,
        nesterov_params,
        run,
        run_invariant_suite,
        run_stability_experiment,
        stability_bound,
        synthetic_binary_dataset,
    )


def test_one_data_representation():
    # rows live only in the CSR Dataset; no per-example classes are exported
    assert not hasattr(sgdm_stability, "Example")
    assert not hasattr(sgdm_stability, "SparseVector")
    assert {"indptr", "indices", "values", "labels", "dim"} <= set(
        sgdm_stability.Dataset.__dataclass_fields__
    )
