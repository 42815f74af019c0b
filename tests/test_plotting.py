import xml.etree.ElementTree as ET

import pytest

from sgdm_stability.cli import EXIT_OK, main
from sgdm_stability.plotting import PlotError, PlotSpec, emit_plot, read_series_csv

HEADER = "epoch,mean_dist,std_dist,censored_count\n"


def write_series(path, rows):
    path.write_text(HEADER + "".join(f"{e},{m},{s},0\n" for e, m, s in rows))


class TestReadSeries:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "hb_beta0.9_step0.01.csv"
        write_series(p, [(1, 0.5, 0.1), (2, 0.7, 0.2)])
        s = read_series_csv(p)
        assert s.label == "hb_beta0.9_step0.01"
        assert s.x == [1.0, 2.0]
        assert s.mean == [0.5, 0.7]

    def test_missing_column_named(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("epoch,mean_dist,censored_count\n1,0.5,0\n")
        with pytest.raises(PlotError, match="std_dist"):
            read_series_csv(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text(HEADER)
        with pytest.raises(PlotError, match="no data rows"):
            read_series_csv(p)

    def test_bad_cell_rejected(self, tmp_path):
        p = tmp_path / "junk.csv"
        p.write_text(HEADER + "1,potato,0.1,0\n")
        with pytest.raises(PlotError, match="bad row"):
            read_series_csv(p)


class TestEmitPlot:
    def test_svg_parses_and_has_legend_in_input_order(self, tmp_path):
        names = ["alpha", "bravo", "charlie", "delta"]
        inputs = []
        for i, name in enumerate(names):
            p = tmp_path / f"{name}.csv"
            write_series(p, [(1, 0.1 * (i + 1), 0.02), (2, 0.2 * (i + 1), 0.03)])
            inputs.append(str(p))
        out = tmp_path / "plot.svg"
        emit_plot(PlotSpec(inputs=tuple(inputs), output=str(out), title="divergence"))
        root = ET.fromstring(out.read_text())
        assert root.tag.endswith("svg")
        texts = [t.text for t in root.iter() if t.tag.endswith("text")]
        positions = [texts.index(n) for n in names]
        assert positions == sorted(positions)
        assert "divergence" in texts

    def test_flat_zero_series_renders(self, tmp_path):
        p = tmp_path / "flat.csv"
        write_series(p, [(1, 0.0, 0.0), (2, 0.0, 0.0)])
        out = tmp_path / "flat.svg"
        emit_plot(PlotSpec(inputs=(str(p),), output=str(out)))
        ET.fromstring(out.read_text())

    def test_log_scale_with_zeros(self, tmp_path):
        p = tmp_path / "mix.csv"
        write_series(p, [(1, 0.0, 0.0), (2, 1e-6, 1e-7), (3, 1e-2, 1e-3)])
        out = tmp_path / "log.svg"
        emit_plot(PlotSpec(inputs=(str(p),), output=str(out), logy=True))
        ET.fromstring(out.read_text())

    @pytest.mark.parametrize("tiny", ["5e-324", "1e-300"])
    def test_log_axis_down_to_a_tiny_mean_keeps_few_labels(self, tmp_path, tiny):
        # a tenth of the subnormal 5e-324 underflows to 0, which has no log;
        # 1e-300 puts 300 decades on the axis
        p = tmp_path / "tiny.csv"
        write_series(p, [(1, tiny, 0), (2, 1, 0)])
        out = tmp_path / "tiny.svg"
        assert main(["plot", "--overrides", f"inputs={p}", f"output={out}", "logy=true"]) == EXIT_OK
        root = ET.fromstring(out.read_text())
        y_labels = [t for t in root.iter() if t.tag.endswith("text") and t.get("text-anchor") == "end"]
        assert 0 < len(y_labels) <= 11

    @pytest.mark.parametrize(
        "axis, rows",
        [
            # 1e17 + 1 == 1e17: widening leaves the span 0
            ("x", [(1e17, 0.5, 0.1)]),
            # mean +- std are finite, their span is not
            ("y", [(1, 0, 1e308), (2, 0, 1e308)]),
            # a span so small that its tick step underflows
            ("x", [(0, 0.5, 0.1), (2e-323, 0.5, 0.1)]),
        ],
    )
    def test_axis_without_a_finite_nonzero_span_is_a_plot_error(self, tmp_path, axis, rows):
        p = tmp_path / "edge.csv"
        write_series(p, rows)
        out = tmp_path / "never.svg"
        with pytest.raises(PlotError, match=f"the {axis} axis cannot span"):
            emit_plot(PlotSpec(inputs=(str(p),), output=str(out)))
        assert not out.exists()

    def test_span_of_a_few_floats_renders(self, tmp_path):
        # the tick step is below the spacing of floats near 1, so adding it
        # to a running tick would never pass the top of the axis
        p = tmp_path / "narrow.csv"
        write_series(p, [(1, 0.5, 0.1), (1.0000000000000004, 0.5, 0.1)])
        out = tmp_path / "narrow.svg"
        emit_plot(PlotSpec(inputs=(str(p),), output=str(out)))
        ET.fromstring(out.read_text())

    def test_invalid_input_blocks_output_file(self, tmp_path):
        good = tmp_path / "good.csv"
        write_series(good, [(1, 0.5, 0.1)])
        bad = tmp_path / "bad.csv"
        bad.write_text(HEADER)  # header only
        out = tmp_path / "never.svg"
        with pytest.raises(PlotError):
            emit_plot(PlotSpec(inputs=(str(good), str(bad)), output=str(out)))
        assert not out.exists()

    def test_no_inputs_rejected(self, tmp_path):
        with pytest.raises(PlotError):
            emit_plot(PlotSpec(inputs=(), output=str(tmp_path / "x.svg")))

    def test_labels_are_xml_escaped(self, tmp_path):
        p = tmp_path / "a<b&c.csv"
        write_series(p, [(1, 0.5, 0.1)])
        out = tmp_path / "esc.svg"
        emit_plot(PlotSpec(inputs=(str(p),), output=str(out), title="x < y & z"))
        root = ET.fromstring(out.read_text())
        texts = [t.text for t in root.iter() if t.tag.endswith("text")]
        assert "x < y & z" in texts
        assert "a<b&c" in texts


class TestCensoredSeries:
    """A censored grid point's CSV holds NaN means; only finite points are drawn."""

    @pytest.mark.parametrize("logy", [False, True])
    def test_no_finite_point_in_any_input_is_a_plot_error(self, tmp_path, logy):
        p = tmp_path / "hb_beta0.9_step1e+308.csv"
        write_series(p, [(1, "nan", "nan"), (2, "nan", "nan")])
        out = tmp_path / "never.svg"
        with pytest.raises(PlotError, match="censored"):
            emit_plot(PlotSpec(inputs=(str(p),), output=str(out), logy=logy))
        assert not out.exists()

    @pytest.mark.parametrize("logy", [False, True])
    def test_censored_series_keeps_its_legend_and_draws_nothing(self, tmp_path, logy):
        good = tmp_path / "good.csv"
        write_series(good, [(1, 0.5, 0.1), (2, "inf", 0.1), (3, 0.7, "nan"), (4, 0.9, 0.2)])
        censored = tmp_path / "censored.csv"
        write_series(censored, [(1, "nan", "nan"), (2, "nan", "nan")])
        out = tmp_path / "mixed.svg"
        emit_plot(PlotSpec(inputs=(str(good), str(censored)), output=str(out), logy=logy))
        svg = out.read_text()
        assert "nan" not in svg and "inf" not in svg
        root = ET.fromstring(svg)
        texts = [t.text for t in root.iter() if t.tag.endswith("text")]
        assert "good" in texts and "censored (censored)" in texts
        lines = [e for e in root.iter() if e.tag.endswith("polyline")]
        bands = [e for e in root.iter() if e.tag.endswith("polygon")]
        assert len(lines) == len(bands) == 1
        # the two finite points of the first series, and nothing else
        assert len(lines[0].get("points").split()) == 2
        assert len(bands[0].get("points").split()) == 4
