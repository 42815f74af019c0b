import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import wrong_effective_step

import sgdm_stability
from sgdm_stability import harness
from sgdm_stability.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_REFUSED,
    EXIT_USAGE,
    KEYS,
    OUTDIR_ENV,
    ConfigError,
    apply_overrides,
    load_config,
    main,
)
from sgdm_stability.theory import check_stab_condition, variant_params

SRC = Path(sgdm_stability.__file__).resolve().parents[1]
# five rows whose train split has alpha = 2.5e299, so the step caps are about 1e-300
BIG_SVM = "1 1:1e150 2:1\n-1 1:1 2:1e150\n1 1:2 2:3\n-1 1:3 2:1\n1 1:1 2:1\n"
# the same rows with features of 1e155, whose squares overflow: alpha = inf
HUGE_SVM = BIG_SVM.replace("1e150", "1e155")
README = SRC.parent / "README.md"


def _no_constant(name):
    raise AssertionError(f"{name} is not JSON")


def read_strict_json(path):
    """An artifact parsed as strict JSON: NaN and Infinity fail the test."""
    return json.loads(path.read_text(), parse_constant=_no_constant)


class TestConfigFile:
    def test_parses_comments_and_whitespace(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# full line comment\n"
            "dataset = synthetic   # trailing comment\n"
            "\n"
            "steps=0.01,0.05\n"
        )
        cfg = load_config(p)
        assert cfg == {"dataset": "synthetic", "steps": "0.01,0.05"}

    def test_bad_line_reports_number(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("dataset=synthetic\nnot a pair\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.cfg")

    def test_overrides_win(self):
        merged = apply_overrides({"a": "1", "b": "2"}, ["b=3", "c = 4"])
        assert merged == {"a": "1", "b": "3", "c": "4"}

    def test_override_requires_equals(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["novalue"])


class TestExitCodes:
    def test_unknown_verb_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: usage:")
        assert err.count("\n") == 1

    def test_missing_required_key(self, capsys):
        assert main(["recipe"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert "'n'" in err

    def test_missing_data_file(self, capsys):
        assert main(["parse-data", "--overrides", "dataset=/no/such/file"]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: data:")

    def test_malformed_data_file(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("1 5:2 3:1\n")  # non-increasing indices
        assert main(["parse-data", "--overrides", f"dataset={p}"]) == EXIT_DATA
        assert "line 1" in capsys.readouterr().err

    def test_config_file_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_bytes(b"seed=\xff\n")
        assert main(["recipe", "--config", str(p)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: cannot read config {p}:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("verb", ["parse-data", "run-stability"])
    def test_data_file_not_utf8(self, verb, tmp_path, capsys):
        p = tmp_path / "latin1.txt"
        p.write_bytes(b"1 1:1\n-1 2:1 # caf\xe9\n1 1:1\n")
        outdir = [f"outdir={tmp_path / 'out'}"] if verb == "run-stability" else []
        assert main([verb, "--overrides", f"dataset={p}", *outdir]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == "error: data: line 2: not UTF-8 text\n"
        assert not (tmp_path / "out").exists()

    def test_index_beyond_int_digits(self, tmp_path, capsys):
        p = tmp_path / "long.txt"
        p.write_text("1 1:1\n1 " + "9" * 5000 + ":1\n")
        assert main(["parse-data", "--overrides", f"dataset={p}"]) == EXIT_DATA
        assert capsys.readouterr().err == "error: data: line 2: feature index with 5000 digits is out of range\n"


class TestParseData:
    def test_metadata_json(self, tmp_path, capsys):
        p = tmp_path / "tiny.txt"
        p.write_text("1 1:1 3:2\n-1 2:0.5\n1 1:4\n")
        assert main(["parse-data", "--overrides", f"dataset={p}"]) == EXIT_OK
        meta = json.loads(capsys.readouterr().out)
        assert meta["n"] == 3
        assert meta["dim"] == 3
        assert meta["labels"] == {"1": 2, "-1": 1}
        assert "known_shape" not in meta

    def test_known_shape_comparison(self, tmp_path, capsys):
        p = tmp_path / "mushrooms"
        p.write_text("1 1:1\n2 2:1\n")
        assert main(["parse-data", "--overrides", f"dataset={p}"]) == EXIT_OK
        meta = json.loads(capsys.readouterr().out)
        assert meta["known_shape"] == {"n": 8124, "dim": 112}
        assert meta["matches_known_shape"] is False


RUN_OVERRIDES = [
    "dataset=synthetic",
    "synth_n=40",
    "synth_dim=5",
    "steps=0.01,0.05",
    "betas=0,0.5",
    "reps=2",
    "epochs=2",
    "seed=7",
]


class TestRunStability:
    def test_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "results"
        rc = main(["run-stability", "--overrides", *RUN_OVERRIDES, f"outdir={out}"])
        assert rc == EXIT_OK
        stdout = capsys.readouterr().out
        assert "manifest.json" in stdout
        csvs = {p.name for p in out.glob("*.csv")}
        assert csvs == {
            "hb_beta0_step0.01.csv",
            "hb_beta0_step0.05.csv",
            "hb_beta0.5_step0.01.csv",
            "hb_beta0.5_step0.05.csv",
        }
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["repetitions"] == 2
        assert f"outdir={out}" in manifest["overrides"]
        assert len(manifest["grid"]) == 4

    def test_manifest_records_the_overrides_as_given(self, tmp_path, capsys):
        # a value holding ';' stays one override
        overrides = [*RUN_OVERRIDES, f"outdir={tmp_path / 'a;b'}"]
        assert main(["run-stability", "--overrides", *overrides]) == EXIT_OK
        capsys.readouterr()
        manifest = json.loads((tmp_path / "a;b" / "manifest.json").read_text())
        assert manifest["overrides"] == overrides

    def test_rerun_reproduces_csv_bytes(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["run-stability", "--overrides", *RUN_OVERRIDES, f"outdir={out}"]) == EXIT_OK
        capsys.readouterr()
        for p1 in sorted(out1.glob("*.csv")):
            p2 = out2 / p1.name
            assert p1.read_bytes() == p2.read_bytes()

    def test_outdir_env_var_honored(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv(OUTDIR_ENV, str(target))
        assert main(["run-stability", "--overrides", *RUN_OVERRIDES]) == EXIT_OK
        capsys.readouterr()
        assert (target / "manifest.json").exists()

    def test_config_file_plus_override(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "dataset=synthetic\nsynth_n=40\nsynth_dim=5\nsteps=0.01\n"
            "betas=0\nreps=2\nepochs=1\nseed=1\n"
        )
        out = tmp_path / "o"
        rc = main(
            ["run-stability", "--config", str(cfgfile), "--overrides", f"outdir={out}", "reps=3"]
        )
        assert rc == EXIT_OK
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["repetitions"] == 3

    @pytest.mark.parametrize(
        "grid,name",
        [
            (["steps=0.1,0.1", "betas=0.5"], "hb_beta0.5_step0.1.csv"),
            (["steps=0.1", "betas=0.9,0.9"], "hb_beta0.9_step0.1.csv"),
        ],
        ids=["steps", "betas"],
    )
    def test_grid_points_sharing_a_csv_name_are_refused(self, grid, name, tmp_path, capsys, monkeypatch):
        out = tmp_path / "o"
        overrides = ["dataset=synthetic", "synth_n=50", "synth_dim=3", "reps=2", "epochs=1", *grid, f"outdir={out}"]
        calls = []
        monkeypatch.setattr(harness, "coupled_distance_batch", lambda *a, **k: calls.append(1))
        assert main(["run-stability", "--overrides", *overrides]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and err.count("\n") == 1
        assert f"would both write {name}" in err
        assert not calls and not out.exists()

    def test_synthetic_data_beyond_the_available_memory_is_refused(self, tmp_path, capsys, monkeypatch):
        # about 9.7 GiB of rows and a row draw against 1 GiB available: exit 2 before the
        # first draw, which the patched generator would refuse
        monkeypatch.setattr(sgdm_stability.dataset, "available_memory", lambda: 2**30)
        monkeypatch.setattr(
            sgdm_stability.dataset.np.random, "default_rng", lambda seed: pytest.fail("drew the rows")
        )
        out = tmp_path / "o"
        overrides = ["dataset=synthetic", "synth_dim=100000000", "synth_n=10", "reps=1", "epochs=1", f"outdir={out}"]
        assert main(["run-stability", "--overrides", *overrides]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: data: synthetic data of synth_n = 10 rows by synth_dim = 100000000 features")
        assert "needs about 9918 MiB, more than the 1024 MiB available" in err and err.count("\n") == 1
        assert not out.exists()

    def test_grid_points_with_distinct_csv_names_keep_them(self, tmp_path, capsys):
        out = tmp_path / "o"
        overrides = [
            "dataset=synthetic", "synth_n=50", "synth_dim=3", "reps=2", "epochs=1",
            "steps=0.1,0.100001", "betas=0.5", f"outdir={out}",
        ]
        assert main(["run-stability", "--overrides", *overrides]) == EXIT_OK
        capsys.readouterr()
        names = ["hb_beta0.5_step0.1.csv", "hb_beta0.5_step0.100001.csv"]
        assert sorted(p.name for p in out.glob("*.csv")) == names
        manifest = json.loads((out / "manifest.json").read_text())
        assert [entry["csv"] for entry in manifest["grid"]] == names


class TestCheckBounds:
    BASE = [
        "dataset=synthetic",
        "synth_n=50",
        "synth_dim=5",
        "betas=0,0.5",
        "samples=4",
        "t=1n",
        "seed=3",
    ]

    def test_passes_within_cap(self, tmp_path, capsys):
        out = tmp_path / "bc"
        rc = main(["check-bounds", "--overrides", *self.BASE, f"outdir={out}", "step_fraction=0.5"])
        assert rc == EXIT_OK
        stdout = capsys.readouterr().out
        assert "holds=True" in stdout
        reports = json.loads((out / "bound_check.json").read_text())
        assert len(reports) == 2
        assert all(r["holds"] for r in reports)

    @pytest.mark.parametrize(
        "variant,fraction", [("nesterov", 0.5), ("nesterov", 0.999), ("general", 0.97), ("hb", 0.999)]
    )
    def test_step_fraction_sized_against_the_run_variant(self, variant, fraction, tmp_path, capsys):
        # the step is a fraction of the cap of the hyperparameters the variant
        # actually runs, beta = 0 included, so any fraction below 1 is admitted
        out = tmp_path / "bc"
        rc = main(
            ["check-bounds", "--overrides", *self.BASE, f"outdir={out}",
             f"variant={variant}", f"step_fraction={fraction}", "samples=1"]
        )
        assert rc == EXIT_OK, capsys.readouterr().err
        assert len(json.loads((out / "bound_check.json").read_text())) == 2

    def test_infinite_margin_ratio_is_null(self, tmp_path, capsys):
        # one step rarely reaches the perturbed index: the measured divergence
        # is 0 and the bound over it is infinite
        out = tmp_path / "bc"
        rc = main(
            ["check-bounds", "--overrides", "dataset=synthetic", "synth_n=50", "synth_dim=4",
             "samples=1", "t=1", f"outdir={out}"]
        )
        assert rc == EXIT_OK
        capsys.readouterr()
        reports = read_strict_json(out / "bound_check.json")
        assert reports[0]["empirical"] == 0.0
        assert reports[0]["margin_ratio"] is None

    def test_bound_that_underflows_is_refused(self, tmp_path, capsys):
        # eta^2 ~ 1.8e-602 underflows inside the coefficient, although the
        # bound, about 2.6e-300, is a float: a zero bound is no verdict
        big = tmp_path / "big.svm"
        big.write_text(BIG_SVM)
        out = tmp_path / "bc"
        argv = [f"dataset={big}", "betas=0.5", "samples=2", "t=4", f"outdir={out}"]
        assert main(["check-bounds", "--overrides", *argv]) == EXIT_DATA
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("error: data: the stability bound at beta 0.5") and err.count("\n") == 1
        assert not out.exists()

    def test_refused_beta_stops_the_check_before_any_beta_runs(self, tmp_path, capsys, monkeypatch):
        # step 0.2 is admitted at beta = 0.5 but not at 0.9: every beta's
        # condition is checked first, so nothing runs, prints or is written
        calls = []
        kernel = harness.coupled_distance_batch
        monkeypatch.setattr(harness, "coupled_distance_batch", lambda *a, **k: calls.append(1) or kernel(*a, **k))
        out = tmp_path / "bc"
        argv = ["dataset=synthetic", "synth_n=40", "betas=0.5,0.9", "step=0.2", f"outdir={out}"]
        assert main(["check-bounds", "--overrides", *argv]) == EXIT_REFUSED
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("error: precondition:") and err.count("\n") == 1
        assert calls == []
        assert not out.exists()

    def test_full_cap_is_admitted(self, tmp_path, capsys):
        # the closed-form cap here is refused by one rounding (lhs
        # 3.999999999999998 > rhs 3.9999999999999973); max_step steps it down
        out = tmp_path / "bc"
        argv = ["dataset=synthetic", "synth_n=2000", "synth_dim=20", "betas=0", "step_fraction=1",
                "samples=2", "t=1", f"outdir={out}"]
        assert main(["check-bounds", "--overrides", *argv]) == EXIT_OK, capsys.readouterr().err
        assert len(json.loads((out / "bound_check.json").read_text())) == 1

    def test_step_above_cap_is_refused(self, tmp_path, capsys):
        out = tmp_path / "bc2"
        rc = main(["check-bounds", "--overrides", *self.BASE, f"outdir={out}", "step=50.0"])
        assert rc == EXIT_REFUSED
        assert capsys.readouterr().err.startswith("error: precondition:")
        assert not (out / "bound_check.json").exists()


class TestBetaPrintedExactly:
    """A beta just below 1 prints as given in summaries, messages and CSV
    names, not rounded to 1, a value every verb refuses."""

    BETA = "0.99999999"

    def test_run_stability_summary(self, tmp_path, capsys):
        argv = ["dataset=synthetic", "synth_n=40", "synth_dim=5", f"betas={self.BETA}", "steps=0.01",
                "reps=2", "epochs=1", f"outdir={tmp_path / 'rs'}"]
        assert main(["run-stability", "--overrides", *argv]) == EXIT_OK
        assert f"  hb_beta{self.BETA}_step0.01.csv: beta={self.BETA} step=0.01 " in capsys.readouterr().out
        assert [p.name for p in (tmp_path / "rs").glob("*.csv")] == [f"hb_beta{self.BETA}_step0.01.csv"]

    def test_check_bounds_summary(self, tmp_path, capsys):
        argv = ["dataset=synthetic", "synth_n=40", "synth_dim=5", f"betas={self.BETA}", "samples=2",
                "t=1n", "step_fraction=0.5", f"outdir={tmp_path / 'bc'}"]
        assert main(["check-bounds", "--overrides", *argv]) == EXIT_OK
        assert capsys.readouterr().out.startswith(f"beta={self.BETA} step=")

    def test_precondition_message(self, tmp_path, capsys):
        argv = ["dataset=synthetic", "synth_n=40", f"betas={self.BETA}", "step=0.2", f"outdir={tmp_path / 'bc'}"]
        assert main(["check-bounds", "--overrides", *argv]) == EXIT_REFUSED
        assert capsys.readouterr().err.startswith(
            f"error: precondition: stability condition violated at beta {self.BETA}: "
        )

    def test_underflow_message(self, tmp_path, capsys):
        big = tmp_path / "big.svm"
        big.write_text(BIG_SVM)
        argv = [f"dataset={big}", f"betas={self.BETA}", "samples=2", "t=4", f"outdir={tmp_path / 'bc'}"]
        assert main(["check-bounds", "--overrides", *argv]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: data: the stability bound at beta {self.BETA} underflows")


# SHA-256 of the artifacts of two small synthetic runs, as the code wrote them
# when the sweep and the bound check came to share one draws record and one
# grid builder.  A change to the numerics must re-record them and say so.
PINNED_DIGESTS = {
    "nesterov_beta0_step0.01.csv": "50f1f8548c19dd64c4579421f876151533597c853c4d3ed0ec4832333c9e95b0",
    "nesterov_beta0_step0.5.csv": "ff2822c89645b5de7bcf00b22884ee8482cb64bad2b173be4d1e7e04c7a55ac5",
    "nesterov_beta0.9_step0.01.csv": "92ebca0c6e9a62cef1e3f52f6c814fecd58e8bc926b90a30c685e2a40d9e2452",
    "nesterov_beta0.9_step0.5.csv": "4d1353b24a02c80f04b765e5991deb2c69bb6565daa49984364700f6b95b92c6",
    "bound_check.json": "0c1a9933b1ac015a4a57d68b0a758275d782608c71d8397061c0c2b8a8d39959",
    "invariants.json": "2fef763f43dfb7982de57192bf96c916a6584fbee6cfe0dba84e13956da42453",
}


def test_artifacts_are_byte_identical_to_the_pinned_digests(tmp_path, capsys):
    # nesterov at beta = 0 runs plain SGD and takes the general bound; the
    # sweep subsamples its train rows
    shared = ["dataset=synthetic", "synth_n=60", "synth_dim=6", "variant=nesterov", "betas=0,0.9", "seed=5"]
    sweep = ["steps=0.01,0.5", "reps=3", "epochs=2", "max_train=40", f"outdir={tmp_path / 'rs'}"]
    assert main(["run-stability", "--overrides", *shared, *sweep]) == EXIT_OK
    assert main(["check-bounds", "--overrides", *shared, "samples=3", "t=2n", f"outdir={tmp_path / 'cb'}"]) == EXIT_OK
    # the identity suite on its own default data
    assert main(["verify-invariants", "--overrides", "check_steps=200", "betas=0,0.9", f"outdir={tmp_path / 'vi'}"]) == EXIT_OK
    capsys.readouterr()
    files = [*(tmp_path / "rs").glob("*.csv"), tmp_path / "cb" / "bound_check.json", tmp_path / "vi" / "invariants.json"]
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files} == PINNED_DIGESTS


class TestNumericConfigErrors:
    """Out-of-range numbers exit 2 with a one-line message, before any work."""

    @pytest.mark.parametrize(
        "bad",
        [
            "reps=0",
            "epochs=0",
            "stride=-1",
            "max_train=-5",
            "steps=-0.1",
            "betas=1.0",
            "seed=-1",
            "fraction=1.0",
            "synth_n=0",
            "synth_dim=0",
        ],
        ids=lambda item: item.split("=")[0],
    )
    def test_run_stability(self, bad, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run-stability", "--overrides", *RUN_OVERRIDES, bad, f"outdir={out}"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: key {bad.split('=')[0]!r}:")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "bad",
        [
            "samples=0",
            "t=0",
            "step=0",
            pytest.param("t=infn", id="t-infinite-factor"),
            pytest.param("t=1e30n", id="t-beyond-int64"),
            pytest.param("t=1e307n", id="t-beyond-float-range"),
        ],
        ids=lambda item: item.split("=")[0],
    )
    def test_check_bounds(self, bad, tmp_path, capsys):
        out = tmp_path / "bc"
        assert main(["check-bounds", "--overrides", *TestCheckBounds.BASE, bad, f"outdir={out}"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: key {bad.split('=')[0]!r}:")
        assert err.count("\n") == 1
        assert not (out / "bound_check.json").exists()

    @pytest.mark.parametrize(
        "bad", ["reps=2", "epochs=2", "stride=5", "steps=0.01", "max_train=10"],
        ids=lambda item: item.split("=")[0],
    )
    def test_check_bounds_rejects_keys_it_does_not_read(self, bad, tmp_path, capsys):
        # valid run-stability values: the key itself is the error
        out = tmp_path / "bc"
        assert main(["check-bounds", "--overrides", *TestCheckBounds.BASE, bad, f"outdir={out}"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: key {bad.split('=')[0]!r}: not read by check-bounds")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("fraction", ["-5", "0.5"])
    def test_check_bounds_step_and_step_fraction(self, fraction, tmp_path, capsys):
        # `step` sets the step, so a `step_fraction` beside it is never read
        out = tmp_path / "bc"
        argv = [*TestCheckBounds.BASE, "step=0.01", f"step_fraction={fraction}", f"outdir={out}"]
        assert main(["check-bounds", "--overrides", *argv]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: config: key 'step_fraction':")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "verb, argv, key",
        [
            # beta * 5e-324 rounds to a Nesterov eta of 0
            ("run-stability", ["dataset=synthetic", "synth_n=20", "synth_dim=3", "variant=nesterov", "betas=0.5",
                               "steps=5e-324", "reps=2", "epochs=1"], "steps"),
            ("check-bounds", ["dataset=synthetic", "synth_n=20", "synth_dim=3", "variant=nesterov", "betas=0.5",
                              "step=5e-324", "samples=2", "t=4"], "step"),
            # the cap at this beta is about 1e-332, so half of it rounds to 0
            ("check-bounds", ["dataset={big}", "betas=0.9999999999999999", "samples=2", "t=4"], "step_fraction"),
        ],
        ids=["steps", "step", "step_fraction"],
    )
    def test_step_that_rounds_to_zero(self, verb, argv, key, tmp_path, capsys):
        big = tmp_path / "big.svm"
        big.write_text(BIG_SVM)
        out = tmp_path / "o"
        argv = [arg.format(big=big) for arg in argv]
        assert main([verb, "--overrides", *argv, f"outdir={out}"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: key {key!r}:")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_check_bounds_step_fraction_needs_features(self, tmp_path, capsys):
        # label-only rows have alpha = 0, so there is no step cap to scale
        data = tmp_path / "labels.txt"
        data.write_text("1\n-1\n" * 5)
        out = tmp_path / "bc"
        rc = main(["check-bounds", "--overrides", f"dataset={data}", "samples=1", "t=1n", f"outdir={out}"])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: config: key 'step_fraction':")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_verify_invariants_needs_features(self, tmp_path, capsys):
        # label-only rows have alpha = 0, so there is no step cap to scale
        data = tmp_path / "labels.txt"
        data.write_text("1\n-1\n" * 5)
        out = tmp_path / "inv"
        assert main(["verify-invariants", "--overrides", f"dataset={data}", f"outdir={out}"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: config: key 'dataset': alpha = 0")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("stride,rc", [(64, EXIT_OK), (65, EXIT_DATA)])
    def test_run_stability_stride_within_the_run(self, stride, rc, tmp_path, capsys):
        # 2 epochs of 32 train rows: a stride above 64 steps records nothing
        out = tmp_path / "o"
        assert main(["run-stability", "--overrides", *RUN_OVERRIDES, f"stride={stride}", f"outdir={out}"]) == rc
        err = capsys.readouterr().err
        if rc == EXIT_DATA:
            assert err.startswith(f"error: data: stride {stride} exceeds the 64 steps of a run")
            assert err.count("\n") == 1
            assert not out.exists()
        else:
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["stride"] == 64

    @pytest.mark.parametrize(
        "bad", ["check_steps=0", "step_fraction=-1", "betas=1", "seed=-1", "losses="],
        ids=lambda item: item.split("=")[0],
    )
    def test_verify_invariants(self, bad, tmp_path, capsys):
        out = tmp_path / "inv"
        assert main(["verify-invariants", "--overrides", bad, f"outdir={out}"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: key {bad.split('=')[0]!r}:")
        assert err.count("\n") == 1
        assert not out.exists()

    # sizes far beyond any address space: the first allocation fails at once
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(
                ["check-bounds", "--overrides", "dataset=synthetic", "synth_n=50", "synth_dim=4",
                 "samples=100000000000000000", "t=1n"],
                id="check-bounds-samples",
            ),
            pytest.param(
                ["run-stability", "--overrides", "dataset=synthetic", "reps=99999999999999", "epochs=1"],
                id="run-stability-reps",
            ),
            pytest.param(
                ["verify-invariants", "--overrides", "check_steps=100000000000000"],
                id="verify-invariants-check_steps",
            ),
        ],
    )
    def test_unallocatable_size(self, argv, tmp_path, capsys):
        out = tmp_path / "big"
        assert main([*argv, f"outdir={out}"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: config: a size that cannot be allocated: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        # alpha=1e308: the cap's denominator, alpha (1+beta)(3-beta) for hb,
        # overflows, so the cap, and with it the step, is 0; l_star=1e308:
        # n * l_star overflows, so rho is inf and the step (1-beta)^2 / rho is 0
        "bad", [
            "n=0", "beta=1", "beta=-0.1", "l_star=-1", "alpha=0", "alpha=inf", "alpha=1e308",
            "alpha=1e308 variant=nesterov", "l_star=1e308",
        ],
        ids=lambda item: item.replace("=", "-").replace(" ", "-"),
    )
    def test_recipe(self, bad, capsys):
        good = {"n": "100", "beta": "0.5", "l_star": "0.1", "alpha": "1"}
        given = dict(item.split("=") for item in bad.split())
        key = bad.split("=")[0]
        overrides = [f"{k}={v}" for k, v in {**good, **given}.items()]
        assert main(["recipe", "--overrides", *overrides]) == EXIT_DATA
        out, err = capsys.readouterr()
        assert err.startswith(f"error: config: key {key!r}:")
        assert err.count("\n") == 1
        assert out == ""

    def test_huge_step_runs_instead_of_overflowing(self, tmp_path, capsys):
        # the squared step overflows to inf: the condition reports unsatisfied
        # and the sweep runs, censoring the pairs that leave float range; the
        # manifest writes the infinite lhs as null
        out = tmp_path / "o"
        rc = main(["run-stability", "--overrides", *RUN_OVERRIDES, "steps=1e300", f"outdir={out}"])
        assert rc == EXIT_OK
        manifest = read_strict_json(out / "manifest.json")
        for entry in manifest["grid"]:
            assert entry["opt_condition"]["lhs"] is None
            assert entry["opt_condition"]["satisfied"] is False
            assert entry["censored"] >= 1


class TestVerifyInvariants:
    def test_clean_pass(self, tmp_path, capsys):
        out = tmp_path / "inv"
        rc = main(
            [
                "verify-invariants",
                "--overrides",
                "betas=0,0.5",
                "losses=logistic",
                "check_steps=200",
                f"outdir={out}",
            ]
        )
        assert rc == EXIT_OK
        assert "0 failed" in capsys.readouterr().out
        report = read_strict_json(out / "invariants.json")
        assert all(r["status"] in ("pass", "skip") for r in report)

    def test_force_bug_fails_y_identity(self, tmp_path, capsys, monkeypatch):
        wrong_effective_step(monkeypatch)
        out = tmp_path / "inv2"
        rc = main(
            [
                "verify-invariants",
                "--overrides",
                "betas=0.5",
                "losses=logistic",
                "check_steps=200",
                f"outdir={out}",
            ]
        )
        assert rc == EXIT_REFUSED
        captured = capsys.readouterr()
        assert "FAIL y_identity" in captured.out
        assert captured.err.startswith("error: check-failed:")
        report = json.loads((out / "invariants.json").read_text())
        failures = [r for r in report if r["status"] == "fail"]
        assert failures and all(r["name"] == "y_identity" for r in failures)

    def test_beta_zero_skips_momentum_checks(self, tmp_path, capsys):
        out = tmp_path / "inv3"
        rc = main(
            [
                "verify-invariants",
                "--overrides",
                "betas=0",
                "losses=squared",
                "check_steps=200",
                f"outdir={out}",
            ]
        )
        assert rc == EXIT_OK
        capsys.readouterr()
        report = json.loads((out / "invariants.json").read_text())
        skipped = {r["name"] for r in report if r["status"] == "skip"}
        assert {"m_recursion", "nesterov_equivalence"} <= skipped

    def test_huge_step_fraction_fails_its_checks_and_writes_the_report(self, tmp_path, capsys):
        # the logistic runs stay finite at steps near 1e199 but their squared
        # step sizes overflow in the checks; the squared runs leave float range
        out = tmp_path / "inv"
        rc = main(["verify-invariants", "--overrides", "step_fraction=1e200", "check_steps=20", f"outdir={out}"])
        assert rc == EXIT_REFUSED
        captured = capsys.readouterr()
        assert captured.err.startswith("error: check-failed:") and captured.err.count("\n") == 1
        report = read_strict_json(out / "invariants.json")
        failed = {(r["name"], r["params"].get("kind")) for r in report if r["status"] == "fail"}
        assert ("dist_bound_margin", "logistic") in failed
        assert ("finite_runs", "squared") in failed
        assert ("finite_runs", "logistic") not in failed

    def test_step_fraction_that_underflows_a_step_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "inv"
        rc = main(["verify-invariants", "--overrides", "step_fraction=1e-320", "check_steps=20", f"outdir={out}"])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: config: key 'step_fraction':") and err.count("\n") == 1
        assert not out.exists()

    def test_bad_force_bug_rejected(self, capsys):
        # the negative control is a test patch, not a key
        rc = main(["verify-invariants", "--overrides", "force_bug=y_identity"])
        assert rc == EXIT_DATA
        assert "key 'force_bug': not read by verify-invariants" in capsys.readouterr().err


class TestRecipe:
    def test_json_output(self, capsys):
        rc = main(
            ["recipe", "--overrides", "n=10000", "beta=0.9", "l_star=0.01", "alpha=1.0"]
        )
        assert rc == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["regime"] == "high_noise"
        assert rec["t"] == 100000
        assert rec["rho"] == pytest.approx(10.0)
        assert rec["step"] == pytest.approx(1e-3)

    @pytest.mark.parametrize(
        # an infinite rho gives a zero step, which exits 2 (TestNumericConfigErrors)
        "overrides,key",
        [(["l_star=0", "alpha=1e-320"], "cap")],
        ids=["cap"],
    )
    def test_infinite_value_prints_null(self, overrides, key, capsys):
        assert main(["recipe", "--overrides", "n=10", "beta=0.5", *overrides]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
        assert rec[key] is None

    def test_clamped_step_passes_the_condition(self, capsys):
        # the cap this alpha gives in closed form, 0.012902308282856618, is
        # refused by the condition it comes from
        alpha = 25.835170422662706
        argv = ["n=1000", "beta=0", "l_star=0", f"alpha={alpha!r}", "variant=hb"]
        assert main(["recipe", "--overrides", *argv]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["step"] == rec["cap"]
        hp = variant_params("hb", rec["step"], 0.0, 1)
        assert check_stab_condition(hp, alpha).satisfied

    def test_rejects_general_variant(self, capsys):
        rc = main(
            ["recipe", "--overrides", "n=100", "beta=0.5", "l_star=0.1", "alpha=1", "variant=general"]
        )
        assert rc == EXIT_DATA


class TestPlot:
    HEADER = "epoch,mean_dist,std_dist,censored_count\n"

    def _series(self, path, scale):
        path.write_text(self.HEADER + "".join(f"{e},{scale * e},{0.1 * scale},0\n" for e in (1, 2, 3)))

    def test_renders_multiple_inputs(self, tmp_path, capsys):
        names = ["one", "two", "three", "four"]
        for i, n in enumerate(names):
            self._series(tmp_path / f"{n}.csv", 0.1 * (i + 1))
        inputs = ",".join(str(tmp_path / f"{n}.csv") for n in names)
        out = tmp_path / "fig.svg"
        rc = main(["plot", "--overrides", f"inputs={inputs}", f"output={out}", "title=sweep"])
        assert rc == EXIT_OK
        capsys.readouterr()
        svg = out.read_text()
        assert svg.startswith("<svg") or "<svg" in svg
        order = [svg.index(n) for n in names]
        assert order == sorted(order)

    def test_default_output_under_outdir(self, tmp_path, capsys):
        self._series(tmp_path / "s.csv", 1.0)
        out = tmp_path / "plots"
        rc = main(
            ["plot", "--overrides", f"inputs={tmp_path / 's.csv'}", f"outdir={out}"]
        )
        assert rc == EXIT_OK
        assert (out / "plot.svg").exists()
        capsys.readouterr()

    def test_schema_violation_names_column_and_writes_nothing(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("epoch,mean_dist\n1,0.5\n")
        out = tmp_path / "no.svg"
        rc = main(["plot", "--overrides", f"inputs={bad}", f"output={out}"])
        assert rc == EXIT_DATA
        assert "std_dist" in capsys.readouterr().err
        assert not out.exists()

    def test_input_not_utf8_is_a_plot_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(self.HEADER.encode() + b"1,0.5,0.1,0 # caf\xe9\n")
        out = tmp_path / "o"
        rc = main(["plot", "--overrides", f"inputs={bad}", f"outdir={out}"])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err == f"error: plot: {bad}: not UTF-8 text\n"
        assert not out.exists()

    def test_oversize_field_is_a_plot_error(self, tmp_path, capsys):
        # the csv module refuses a field longer than its 131072-character limit
        big = tmp_path / "big.csv"
        big.write_text(self.HEADER + "1," + "1" * 200_000 + ",0.1,0\n")
        out = tmp_path / "o"
        rc = main(["plot", "--overrides", f"inputs={big}", f"outdir={out}"])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: plot: {big}: field larger than field limit") and err.count("\n") == 1
        assert not out.exists()

    def test_schema_violation_creates_no_outdir(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("epoch,mean_dist\n1,0.5\n")
        out = tmp_path / "o"
        rc = main(["plot", "--overrides", f"inputs={bad}", f"outdir={out}"])
        assert rc == EXIT_DATA
        assert "std_dist" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("logy", ["0", "1"])
    def test_fully_censored_sweep_is_a_plot_error(self, logy, tmp_path, capsys):
        # a step that overflows censors every repetition: the CSV holds NaN
        runs = tmp_path / "runs"
        argv = ["dataset=synthetic", "synth_n=40", "reps=2", "epochs=1", "steps=1e308", f"outdir={runs}"]
        assert main(["run-stability", "--overrides", *argv]) == EXIT_OK
        csv = runs / "hb_beta0.9_step1e+308.csv"
        assert "nan" in csv.read_text()
        capsys.readouterr()
        out = tmp_path / "plot.svg"
        rc = main(["plot", "--overrides", f"inputs={csv}", f"output={out}", f"logy={logy}"])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: plot: ") and err.count("\n") == 1
        assert not out.exists()

    def test_empty_csv_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(self.HEADER)
        out = tmp_path / "no.svg"
        rc = main(["plot", "--overrides", f"inputs={empty}", f"output={out}"])
        assert rc == EXIT_DATA
        assert "no data rows" in capsys.readouterr().err
        assert not out.exists()


# per verb: keys it reads, then one it does not
UNREAD = [
    ("run-stability", RUN_OVERRIDES, "beta=0.5"),
    ("check-bounds", TestCheckBounds.BASE, "reps=2"),
    ("verify-invariants", [], "synth_n=500"),
    ("recipe", ["n=100", "beta=0.5", "l_star=0.1", "alpha=1"], "bogus=1"),
    ("parse-data", ["dataset={tmp}/tiny.txt"], "dimm=5"),
    ("plot", ["inputs={tmp}/s.csv"], "logx=1"),
]


class TestUnreadKeys:
    """A key the verb does not read exits 2 before any work, on every verb."""

    @pytest.mark.parametrize("verb,good,bad", UNREAD, ids=[f"{v}-{b.split('=')[0]}" for v, _, b in UNREAD])
    def test_rejected(self, verb, good, bad, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(OUTDIR_ENV, str(tmp_path / "out"))
        (tmp_path / "tiny.txt").write_text("1 1:1\n-1 2:1\n")
        (tmp_path / "s.csv").write_text("epoch,mean_dist,std_dist,censored_count\n1,0.5,0.1,0\n")
        before = sorted(tmp_path.rglob("*"))
        overrides = [item.format(tmp=tmp_path) for item in good]
        assert main([verb, "--overrides", *overrides, bad]) == EXIT_DATA
        out, err = capsys.readouterr()
        key = bad.split("=")[0]
        assert err.startswith(f"error: config: key {key!r}: not read by {verb} (it reads ")
        assert err.count("\n") == 1
        assert out == ""
        assert sorted(tmp_path.rglob("*")) == before

    def test_readme_lists_each_verbs_keys(self):
        section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
        listed = {}
        for verb, body in re.findall(r"^- `([a-z-]+)`(.*?)(?=^- |^\S|\Z)", section, re.M | re.S):
            body = re.sub(r"\([^()]*\)", "", " ".join(body.split()))
            keys = re.search(r"Keys: (.*?)(?:\.\s|\.?$)", body).group(1)
            listed[verb] = set(re.findall(r"`([a-z_]+)`", keys))
        assert listed == {verb: set(table) for verb, table in KEYS.items()}


class TestModuleEntry:
    """`python -m sgdm_stability.cli VERB` runs the verb."""

    def _run(self, *argv):
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
        return subprocess.run(
            [sys.executable, "-m", "sgdm_stability.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )

    def test_recipe_prints_json(self, capsys):
        argv = ["recipe", "--overrides", "n=100", "beta=0.5", "l_star=0.1", "alpha=1"]
        done = self._run(*argv)
        assert done.returncode == EXIT_OK, done.stderr
        assert main(argv) == EXIT_OK
        assert done.stdout == capsys.readouterr().out
        assert json.loads(done.stdout)["t"] == 200

    @pytest.mark.parametrize(
        "verb, argv",
        [
            ("check-bounds", ["betas=0.5", "samples=4", "t=8"]),
            ("run-stability", ["betas=0.5", "reps=2", "epochs=1"]),
            ("verify-invariants", []),
        ],
    )
    def test_overflowing_alpha_is_one_data_line(self, verb, argv, tmp_path):
        # in a fresh process, so a RuntimeWarning would reach stderr
        huge = tmp_path / "huge.svm"
        huge.write_text(HUGE_SVM)
        out = tmp_path / "o"
        done = self._run(verb, "--overrides", f"dataset={huge}", *argv, f"outdir={out}")
        assert done.returncode == EXIT_DATA
        assert done.stdout == ""
        assert done.stderr.startswith("error: data: alpha overflows") and done.stderr.count("\n") == 1
        assert not out.exists()

    def test_unknown_verb_is_usage_error(self):
        done = self._run("frobnicate")
        assert done.returncode == EXIT_USAGE
        assert done.stderr.startswith("error: usage:")
