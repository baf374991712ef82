import errno
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from saf import (
    ArrayLayout,
    ElementSize,
    ForbiddenZone,
    GridSpec,
    Pattern,
    Target,
    UVGrid,
    beamform,
    build_virtual_array,
    evaluate_layout,
    make_uv_cut,
    make_uv_grid,
    synthesize_snapshot,
)
from saf.cli import build_parser, main
from saf.io import (
    SchemaError,
    _g17_fields,
    layout_from_dict,
    layout_to_dict,
    load_design_config,
    load_layout,
    read_trace,
    save_layout,
    spec_from_dict,
    spec_hash,
    spec_to_dict,
    write_pattern_csv,
)
from saf.optimizer import DesignSpec, optimize
from conftest import layout_12x16, linear_layout, reference_pattern_csv, ula_layout


def design_config(**overrides):
    config = {
        "dimensionality": "1D",
        "n_tx": 3,
        "n_rx": 4,
        "target_ufov_az": 90.0,
        "target_hpbw_az": math.degrees(0.886 / 16.0005),
        "tx_size": {"w": 0.4, "h": 0.4},
        "rx_size": {"w": 0.4, "h": 0.4},
        "k_max": 40,
        "seed": 5,
        "q_phi": 4,
    }
    config.update(overrides)
    return config


class TestLayoutRoundTrip:
    def test_save_load_identity(self, tmp_path):
        layout = linear_layout([0, 3, 9], tx_nodes=[1, 6], M=12)
        zones = (ForbiddenZone(1.0, 2.0, center=(4, 0), kind="rx-excluded"),)
        path = tmp_path / "layout.json"
        save_layout(layout, path, zones=zones)
        loaded, loaded_zones = load_layout(path)
        assert loaded == layout
        assert loaded_zones == zones

    def test_dict_round_trip(self):
        layout = ula_layout(5)
        again, _ = layout_from_dict(layout_to_dict(layout))
        assert again == layout

    def test_missing_field_diagnostic(self):
        with pytest.raises(SchemaError, match="grid"):
            layout_from_dict({"tx": [], "rx": []})

    def test_malformed_json_has_line_info(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"grid": ')
        with pytest.raises(SchemaError, match="line"):
            load_layout(path)

    def test_spec_round_trip(self):
        spec = DesignSpec(
            dimensionality="1D",
            n_tx=3,
            n_rx=3,
            target_ufov_az=90.0,
            target_hpbw_az=3.0,
            tx_size=ElementSize(0.5, 0.5),
            rx_size=ElementSize(0.5, 0.5),
            enforced_tx=((0, 0),),
            seed=9,
        )
        # enforced positions must be in the layout, not the spec; only check io
        assert spec_from_dict(spec_to_dict(spec)) == spec


# Real and imaginary parts: signed zeros, subnormals and floats in [-1, 1].
_CSV_PARTS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3]),
                       st.floats(-1.0, 1.0))


@st.composite
def _csv_patterns(draw):
    """Patterns on 1-row cuts and non-square lattices, some all zero, over a 300 dB range."""
    n_v, n_u = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    u = draw(arrays(float, n_u, elements=st.floats(-1.0, 1.0)))
    v = np.zeros(1) if n_v == 1 else draw(arrays(float, n_v, elements=st.floats(-1.0, 1.0)))
    values = np.zeros((n_v, n_u), dtype=complex)
    if draw(st.sampled_from(range(8))):  # one pattern in eight is all zero
        scale = 10.0 ** draw(arrays(int, (n_v, n_u), elements=st.integers(-15, 0)))
        scale *= 10.0 ** draw(st.sampled_from([-290, -150, 0, 150, 290]))
        values.real = draw(arrays(float, (n_v, n_u), elements=_CSV_PARTS, fill=st.nothing())) * scale
        values.imag = draw(arrays(float, (n_v, n_u), elements=_CSV_PARTS, fill=st.nothing())) * scale
    return Pattern(UVGrid(u, v), values, build_virtual_array(ula_layout(2)))


def _g17_texts(values) -> list[str]:
    rows = _g17_fields(np.array(values, dtype=float))
    return [row.tobytes().translate(None, b"\0").decode() for row in rows]


# Powers of ten and their neighbours one ulp away, from 1e-6 to 1e17 (the fast
# range is 1e-4 <= |x| < 1e16), -120 dB, and exact ties of the 17th digit:
# half to even gives ...0.2, ...0.8 and ...0.12, half up would not.
_G17_EDGES = [
    *(y for k in range(-6, 18)
      for y in (math.nextafter(10.0**k, 0.0), 10.0**k, math.nextafter(10.0**k, math.inf))),
    -120.0,
    1000000000000000.25,
    1000000000000000.75,
    100000000000000.125,
    0.0,
    5e-324,
    2.2250738585072014e-308,
    1.7976931348623157e308,
    math.inf,
    math.nan,
]


class TestG17Fields:
    def test_edge_cases(self):
        values = _G17_EDGES + [-x for x in _G17_EDGES]
        assert _g17_texts(values) == ["%.17g" % x for x in values]

    @settings(max_examples=300, deadline=None)
    @given(values=arrays(float, st.integers(1, 64), elements=st.floats() | st.floats(-1e17, 1e17)))
    def test_same_text_as_percent_format(self, values):
        # st.floats() draws from the whole range: nan, inf, subnormals and -0.0 too.
        assert _g17_texts(values) == ["%.17g" % x for x in values.tolist()]


class TestPatternCsv:
    def test_format_and_exact_values(self, tmp_path):
        vrx = build_virtual_array(ula_layout(4))
        grid = make_uv_cut(vrx.grid.M, 2)
        pattern = beamform(vrx, synthesize_snapshot(vrx, [Target(0, 0)]), grid)
        path = tmp_path / "pattern.csv"
        write_pattern_csv(pattern, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "u,v,re,im,mag_db"
        assert len(lines) == 1 + grid.u_samples.size * grid.v_samples.size
        # row-major over v then u; values parse back exactly
        for i, line in enumerate(lines[1:]):
            u, v, re, im, db = line.split(",")
            iu = i % grid.u_samples.size
            iv = i // grid.u_samples.size
            assert float(u) == grid.u_samples[iu]
            assert float(v) == grid.v_samples[iv]
            assert float(re) == pattern.values[iv, iu].real
            assert float(im) == pattern.values[iv, iu].imag
            assert float(db) >= -120.0

    def test_floor_applies(self, tmp_path):
        vrx = build_virtual_array(ula_layout(2))
        grid = make_uv_cut(vrx.grid.M, 4)
        pattern = beamform(vrx, np.array([1.0, -1.0]), grid)  # exact null at u=0
        write_pattern_csv(pattern, tmp_path / "p.csv")
        rows = (tmp_path / "p.csv").read_text().splitlines()[1:]
        dbs = [float(r.split(",")[4]) for r in rows]
        assert min(dbs) == -120.0

    def test_golden_bytes(self, tmp_path):
        # |6+8j| = 10 is the peak, -1 lies 20 dB below it, 0 and 1e-7 are floored.
        values = np.array([[6 + 8j, -1], [0, 1e-7]], dtype=complex)
        vrx = build_virtual_array(ula_layout(2))
        write_pattern_csv(Pattern(make_uv_grid(2, 2, 1, 1), values, vrx), tmp_path / "p.csv")
        assert (tmp_path / "p.csv").read_text() == (
            "u,v,re,im,mag_db\n"
            "-1,-1,6,8,0\n"
            "0,-1,-1,0,-20\n"
            "-1,0,0,0,-120\n"
            "0,0,9.9999999999999995e-08,0,-120\n"
        )

    def test_ratio_underflowing_to_zero_is_floored(self, tmp_path):
        # 1e-300 / 1e300 is 0.0 in doubles, where math.log10 would raise.
        values = np.array([[1e300, 1e-300]], dtype=complex)
        vrx = build_virtual_array(ula_layout(2))
        write_pattern_csv(Pattern(make_uv_cut(1, 2), values, vrx), tmp_path / "p.csv")
        assert (tmp_path / "p.csv").read_text().splitlines()[1:] == [
            "-1,0,1.0000000000000001e+300,0,0",
            "0,0,1e-300,0,-120",
        ]

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pattern=_csv_patterns())
    def test_same_bytes_as_the_reference_writer(self, pattern, tmp_path):
        write_pattern_csv(pattern, tmp_path / "streamed.csv")
        reference_pattern_csv(pattern, tmp_path / "reference.csv")
        written = (tmp_path / "streamed.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        if not pattern.values.any():
            assert all(line.endswith(b",-120") for line in written.splitlines()[1:])

    def test_same_bytes_as_the_reference_writer_on_a_beamformed_lattice(self, tmp_path):
        # Real u texts and full-length rows through the row template: 120 u by 56 v nodes.
        layout, _ = layout_from_dict(_planar(0.5))
        targets = [Target(0.0, 0.0), Target(0.3, -0.2, 0.5 - 0.25j), Target(-0.6, 0.1, 1e-4)]
        pattern, _ = evaluate_layout(layout, q_phi=8, q_theta=8, targets=targets)
        assert pattern.values.shape == (56, 120)
        write_pattern_csv(pattern, tmp_path / "template.csv")
        reference_pattern_csv(pattern, tmp_path / "reference.csv")
        assert (tmp_path / "template.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize("targets", [
        None,
        [Target(0.0, 0.0), Target(0.3, -0.2, 0.5 - 0.25j), Target(-0.6, 0.1, 1e-4)],
    ], ids=["broadside", "three-targets"])
    def test_same_bytes_as_the_reference_writer_at_full_size(self, tmp_path, targets):
        # The README's 12x16 grid at q=4: every row of the 284x516 lattice.
        pattern, _ = evaluate_layout(layout_12x16(0), q_phi=4, q_theta=4, targets=targets)
        assert pattern.values.shape == (284, 516)
        write_pattern_csv(pattern, tmp_path / "written.csv")
        reference_pattern_csv(pattern, tmp_path / "reference.csv")
        assert (tmp_path / "written.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_memory_does_not_grow_with_the_lattice(self, tmp_path):
        # The README's 12x16 layout at q=4: a 284x516 lattice and a 15 MB file.
        # Building the whole file in memory peaked at 52 MB.
        grid = make_uv_grid(129, 71, 4, 4)
        rng = np.random.default_rng(0)
        values = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
        pattern = Pattern(grid, values, build_virtual_array(ula_layout(2)))
        pattern.magnitude  # the pattern's, not the writer's: scoring computes it first
        tracemalloc.start()
        try:
            write_pattern_csv(pattern, tmp_path / "p.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "p.csv").stat().st_size > 14e6
        assert peak < 4e6

    def test_a_q8_evaluation_and_its_csv_never_hold_the_complex_lattice(self, tmp_path):
        # The README's 12x16 layout at q=8: a 568x1032 lattice, whose complex values
        # are 9.4 MB and its magnitude 4.7 MB. Holding the pattern as its two factors,
        # evaluate_layout and write_pattern_csv peaked at 8.1 MB; forming the lattice
        # whole, at 15.8 MB. The bound is 1.9 MB (23%) above the measured peak.
        # A small call first imports what the first call of a process imports.
        write_pattern_csv(evaluate_layout(ula_layout(8), q_phi=4, q_theta=4)[0], tmp_path / "small.csv")
        tracemalloc.start()
        try:
            pattern, _ = evaluate_layout(layout_12x16(0), q_phi=8, q_theta=8)
            write_pattern_csv(pattern, tmp_path / "p.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pattern.grid.shape == (568, 1032)
        assert peak < 10e6


class TestDesignCommand:
    def test_happy_path_writes_five_files(self, tmp_path):
        config = tmp_path / "design.json"
        config.write_text(json.dumps(design_config()))
        out = tmp_path / "run"
        assert main(["design", "--config", str(config), "--out", str(out)]) == 0
        for name in ("layout.json", "trace.jsonl", "metrics.json", "pattern.csv", "manifest.json"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert set(manifest["outputs"]) == {
            "layout.json",
            "trace.jsonl",
            "metrics.json",
            "pattern.csv",
            "manifest.json",
        }

    def test_determinism_byte_identical(self, tmp_path):
        config = tmp_path / "design.json"
        config.write_text(json.dumps(design_config()))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["design", "--config", str(config), "--out", str(out1), "--seed", "11"]) == 0
        assert main(["design", "--config", str(config), "--out", str(out2), "--seed", "11"]) == 0
        assert (out1 / "layout.json").read_bytes() == (out2 / "layout.json").read_bytes()
        assert (out1 / "trace.jsonl").read_bytes() == (out2 / "trace.jsonl").read_bytes()

    def test_infeasible_config_exits_2_without_partial_outputs(self, tmp_path):
        config = tmp_path / "design.json"
        config.write_text(
            json.dumps(design_config(n_tx=30, n_rx=30, tx_size={"w": 3.0, "h": 3.0}))
        )
        out = tmp_path / "run"
        assert main(["design", "--config", str(config), "--out", str(out)]) == 2
        assert not (out / "layout.json").exists()

    def test_config_not_mutated(self, tmp_path):
        config = tmp_path / "design.json"
        config.write_text(json.dumps(design_config()))
        digest = hashlib.sha256(config.read_bytes()).hexdigest()
        main(["design", "--config", str(config), "--out", str(tmp_path / "o")])
        assert hashlib.sha256(config.read_bytes()).hexdigest() == digest

    def test_missing_config_is_io_error(self, tmp_path):
        code = main(["design", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_outer_loop_config(self, tmp_path):
        config = tmp_path / "design.json"
        config.write_text(
            json.dumps(design_config(outer_loop=[{"intensity": 1}, {"intensity": 4}]))
        )
        out = tmp_path / "run"
        assert main(["design", "--config", str(config), "--out", str(out), "--threads", "1"]) == 0
        assert (out / "layout.json").exists()

    def test_threads_default_is_the_cpus_the_process_may_run_on(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        args = build_parser().parse_args(["design", "--config", "design.json", "--out", "run"])
        assert args.threads == 1


class TestEvaluateCommand:
    def test_ula_metrics(self, tmp_path):
        save_layout(ula_layout(16), tmp_path / "ula.json")
        out = tmp_path / "eval"
        code = main(
            ["evaluate", "--layout", str(tmp_path / "ula.json"), "--out", str(out),
             "--grid-oversample", "16"]
        )
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert 12.8 <= metrics["pslr_db"] <= 13.8
        assert metrics["ufov_az_deg"] == pytest.approx(90.0)
        assert (out / "pattern.csv").exists()

    def test_one_wavelength_spacing_reports_30_degree_ufov(self, tmp_path):
        save_layout(ula_layout(16, d_y=1.0), tmp_path / "lay.json")
        out = tmp_path / "eval"
        assert main(["evaluate", "--layout", str(tmp_path / "lay.json"), "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["ufov_az_deg"] == pytest.approx(30.0)

    def test_oversample_refinement_consistency(self, tmp_path):
        # aperture much smaller than the grid so even q=1 resolves the lobe
        save_layout(linear_layout(range(9), M=65), tmp_path / "lay.json")
        coarse_dir, fine_dir = tmp_path / "c", tmp_path / "f"
        assert main(["evaluate", "--layout", str(tmp_path / "lay.json"), "--out", str(coarse_dir),
                     "--grid-oversample", "1"]) == 0
        assert main(["evaluate", "--layout", str(tmp_path / "lay.json"), "--out", str(fine_dir),
                     "--grid-oversample", "16"]) == 0
        coarse = json.loads((coarse_dir / "metrics.json").read_text())
        fine = json.loads((fine_dir / "metrics.json").read_text())
        # peak location agrees within one coarse cell (q=1 has no node at 0)
        du = 2.0 / 129
        assert fine["peak_u"] == 0.0
        assert abs(coarse["peak_u"] - fine["peak_u"]) <= du
        # coarse-grid width is within a couple of coarse cells of the refined width
        assert abs(coarse["hpbw_az_deg"] - fine["hpbw_az_deg"]) <= math.degrees(2 * du)

    def test_malformed_layout_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"grid": {"d_y": 0.5}}')
        assert main(["evaluate", "--layout", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "missing field" in capsys.readouterr().err

    def test_degenerate_layout_exits_2(self, tmp_path, capsys):
        # a single VRX has a constant-magnitude pattern: no PSLR exists
        save_layout(linear_layout([0], tx_nodes=[1], M=4), tmp_path / "one.json")
        code = main(["evaluate", "--layout", str(tmp_path / "one.json"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "degenerate" in capsys.readouterr().err

    def test_extra_target_flag(self, tmp_path):
        save_layout(ula_layout(8), tmp_path / "lay.json")
        out = tmp_path / "eval"
        code = main(["evaluate", "--layout", str(tmp_path / "lay.json"), "--out", str(out),
                     "--target", "0.25,0.0"])
        assert code == 0

    @pytest.mark.parametrize("target", ["nan,0", "0,nan", "0.1,0,nan", "0,0,1,nan"])
    def test_non_finite_target_rejected_by_the_parser(self, target, tmp_path, capsys):
        save_layout(ula_layout(8), tmp_path / "lay.json")
        with pytest.raises(SystemExit) as exited:
            main(["evaluate", "--layout", str(tmp_path / "lay.json"), "--out", str(tmp_path / "o"),
                  f"--target={target}"])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "argument --target: target (" in err and "is not finite" in err


def _file(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    return str(path)


def _evaluate(tmp_path, layout):
    return ["evaluate", "--layout", _file(tmp_path, "layout.json", layout), "--out", str(tmp_path / "o")]


def _planar(d_y):
    """An 8x4 planar layout as JSON, on a grid of y spacing ``d_y``."""
    layout = ArrayLayout(GridSpec(0.5, 1.0, 8, 4), [(0, n) for n in range(4)],
                         [(m, 0) for m in range(8)], ElementSize(0.1, 0.1), ElementSize(0.1, 0.1))
    raw = layout_to_dict(layout)
    return {**raw, "grid": {**raw["grid"], "d_y": d_y}}


def _design(tmp_path, **overrides):
    config = _file(tmp_path, "design.json", design_config(**overrides))
    return ["design", "--config", config, "--out", str(tmp_path / "o")]


def _no_search(monkeypatch, argv):
    """``argv``, with the optimizer made to fail if a search starts."""
    def never(*args, **kwargs):
        raise AssertionError("the optimizer ran on an invalid config")

    monkeypatch.setattr("saf.cli.outer_loop", never)
    monkeypatch.setattr("saf.cli.optimize", never)
    return argv


def _pattern_csv_taken(tmp_path, argv):
    """``argv``, with ``pattern.csv`` in its output directory already a directory."""
    (tmp_path / "o" / "pattern.csv").mkdir(parents=True)
    return argv


def _stale(tmp_path, name, argv):
    """``argv``, with an earlier run's ``name`` already in its output directory."""
    (tmp_path / "o").mkdir(exist_ok=True)
    (tmp_path / "o" / name).write_text("stale\n")
    return argv


def _writer_fails(monkeypatch, writer, argv):
    """``argv``, with ``saf.cli``'s ``writer`` leaving a partial file and failing as on a full disk."""
    def fail(*args, **kwargs):
        path = next(a for a in args if isinstance(a, Path))
        path.write_text("partial")
        raise OSError(errno.ENOSPC, "No space left on device", str(path))

    monkeypatch.setattr(f"saf.cli.{writer}", fail)
    return argv


def _contents(out):
    """Each entry of ``out``: a file's bytes, or None for a directory."""
    if not out.exists():
        return {}
    return {p.name: None if p.is_dir() else p.read_bytes() for p in out.iterdir()}


_META = {"type": "meta", "seed": 0, "k_max": 1, "initial_pslr_db": 1.0}
_ITERATION = {"type": "iteration", "k": 1, "candidate_pslr_db": 2.0, "best_pslr_db": 2.0,
              "accepted": True}
_SUMMARY = {"type": "summary", "termination": "budget", "final_pslr_db": 2.0, "improvements": 1,
            "iterations": 1}


def _report(tmp_path, *records):
    text = "\n".join(json.dumps(r) for r in records) + "\n"
    return ["report", "--trace", _file(tmp_path, "trace.jsonl", text)]


def _without(record, key):
    return {k: v for k, v in record.items() if k != key}


def _saf_log(tmp_path, monkeypatch):
    monkeypatch.setenv("SAF_LOG", "LOUD")
    return _report(tmp_path, _META, _ITERATION, _SUMMARY)


@pytest.mark.parametrize(
    "argv, code, field",
    [
        pytest.param(lambda t, m: _evaluate(t, 5), 2, "", id="layout-not-an-object"),
        pytest.param(lambda t, m: _evaluate(t, {**layout_to_dict(ula_layout(4)), "grid": None}),
                     2, "", id="layout-grid-null"),
        pytest.param(lambda t, m: _evaluate(t, {**layout_to_dict(ula_layout(4)), "tx": [7, [0, 0]]}),
                     2, "", id="layout-coordinate-not-a-pair"),
        pytest.param(lambda t, m: _report(t, _META, [1, 2], _SUMMARY), 2, "",
                     id="trace-line-not-an-object"),
        pytest.param(lambda t, m: _report(t, _META, _without(_ITERATION, "best_pslr_db"), _SUMMARY),
                     2, "", id="trace-missing-best"),
        pytest.param(lambda t, m: _report(t, _META, _ITERATION, _without(_SUMMARY, "final_pslr_db")),
                     2, "", id="trace-missing-final"),
        pytest.param(lambda t, m: _report(t, _without(_META, "initial_pslr_db"), _ITERATION, _SUMMARY),
                     2, "", id="trace-missing-initial"),
        pytest.param(lambda t, m: ["report", "--trace", str(t / "missing.jsonl")], 1, "",
                     id="trace-file-missing"),
        pytest.param(lambda t, m: _design(t, n_tx=1, n_rx=1), 2, "", id="design-1x1-degenerate"),
        pytest.param(lambda t, m: _design(t, desired_pslr_db=math.nan), 2, "",
                     id="design-nan-pslr-goal"),
        # A misspelt key used to be dropped, and the run went on with the default.
        pytest.param(lambda t, m: _design(t, kmax_typo=99999), 2, "cannot set 'kmax_typo'",
                     id="design-unknown-config-key"),
        # So was one inside a zone, an element size or a layout file: a misspelt zone kind
        # made a both-excluded zone, a misspelt enforced_tx enforced nothing.
        pytest.param(lambda t, m: _design(t, zones=[{"y_mc": 1.0, "z_mc": 1.0, "center": [4, 0],
                                                     "kidn": "tx-excluded"}]),
                     2, "config.zones[0]: cannot set 'kidn'", id="design-zone-unknown-key"),
        pytest.param(lambda t, m: _design(t, tx_size={"w": 0.4, "h": 0.4, "d": 0.4}), 2,
                     "config.tx_size: cannot set 'd'", id="design-size-unknown-key"),
        pytest.param(lambda t, m: _evaluate(t, {**layout_to_dict(ula_layout(4)),
                                                "enforced_txx": [[0, 0]]}),
                     2, "layout: cannot set 'enforced_txx'", id="layout-unknown-key"),
        pytest.param(lambda t, m: _evaluate(t, {**layout_to_dict(ula_layout(4)),
                                                "grid": {"d_y": 0.5, "d_z": 0.5, "M": 4, "N": 1, "n": 2}}),
                     2, "grid: cannot set 'n'", id="layout-grid-unknown-key"),
        pytest.param(lambda t, m: _design(t) + ["--threads", "-3"], 2, "argument --threads",
                     id="design-threads-below-one"),
        # An oversampling of 0 used to exit 2 saying the spacing exceeds q_phi / 2 = 0.
        pytest.param(lambda t, m: _evaluate(t, layout_to_dict(ula_layout(4))) + ["--grid-oversample", "0"],
                     2, "argument --grid-oversample", id="evaluate-grid-oversample-zero"),
        pytest.param(lambda t, m: _design(t) + ["--grid-oversample", "-2"], 2, "argument --grid-oversample",
                     id="design-grid-oversample-negative"),
        pytest.param(_saf_log, 2, "", id="invalid-saf-log"),
        # JSON values of the wrong type are refused, not converted.
        pytest.param(lambda t, m: _design(t, use_hia="false"), 2, "config.use_hia",
                     id="config-bool-as-string"),
        pytest.param(lambda t, m: _design(t, k_max=5.7), 2, "config.k_max", id="config-int-as-float"),
        pytest.param(lambda t, m: _design(t, k_max=True), 2, "config.k_max", id="config-int-as-bool"),
        pytest.param(lambda t, m: _design(t, intensity="3"), 2, "config.intensity",
                     id="config-int-as-string"),
        pytest.param(lambda t, m: _design(t, seed=1.9), 2, "config.seed", id="config-seed-as-float"),
        # A negative seed used to reach numpy's SeedSequence: "expected non-negative integer".
        pytest.param(lambda t, m: _design(t, seed=-5), 2, "config: seed must be >= 0",
                     id="config-seed-negative"),
        pytest.param(lambda t, m: _design(t, seed=-5, outer_loop=[{"intensity": 2}]), 2,
                     "config: seed must be >= 0", id="config-seed-negative-outer-loop"),
        pytest.param(lambda t, m: _design(t) + ["--seed", "-1"], 2, "seed must be >= 0",
                     id="design-seed-negative"),
        # An intensity the search cannot draw used to fail mid-search, naming no field:
        # "range of 4294967296 values exceeds 2**32 - 1".
        pytest.param(lambda t, m: _no_search(m, _design(t, intensity=2 ** 32)), 2,
                     "config: intensity must be in [0, 2**32 - 1]", id="config-intensity-above-2**32-1"),
        pytest.param(lambda t, m: _design(t, tx_size={"w": 2.0, "h": 0.4}, enforced_tx=[[0, 0], [1, 0]]), 2,
                     "enforced positions violate the constraints", id="design-enforced-elements-overlap"),
        pytest.param(lambda t, m: _design(t, dimensionality=1), 2,
                     "config.dimensionality: expected a string, got 1", id="config-string-as-number"),
        # A 1-degree uFOV (true read as 1.0) is feasible only on a wide, finely sampled aperture.
        pytest.param(lambda t, m: _design(t, target_ufov_az=True, q_phi=64,
                                          target_hpbw_az=math.degrees(0.886 / 400)),
                     2, "config.target_ufov_az", id="config-float-as-bool"),
        pytest.param(lambda t, m: _design(t, enforced_tx=[[0.9, 0]]), 2, "config.enforced_tx[0]",
                     id="config-coordinate-as-float"),
        # At q_phi 4 a 1-degree uFOV holds a single u sample: no PSLR to optimize.
        pytest.param(lambda t, m: _design(t, target_ufov_az=1.0,
                                          target_hpbw_az=math.degrees(0.886 / 400)),
                     2, "q_phi", id="design-ufov-below-two-samples"),
        pytest.param(lambda t, m: _evaluate(t, {**layout_to_dict(ula_layout(4)),
                                                "grid": {"d_y": 0.5, "d_z": 0.5, "M": 4.5, "N": 1}}),
                     2, "grid.M", id="layout-grid-size-as-float"),
        pytest.param(lambda t, m: _evaluate(t, {**layout_to_dict(ula_layout(4)),
                                                "rx": [[0, 0], [1, 0], [2, 0], [3.2, 0]]}),
                     2, "rx[3]", id="layout-coordinate-as-float"),
        # A grid whose extent is not finite, in the layout or in its virtual grid.
        pytest.param(lambda t, m: _evaluate(t, _planar(math.inf)), 2, "extent",
                     id="layout-grid-spacing-infinite"),
        pytest.param(lambda t, m: _evaluate(t, _planar(1e308)), 2, "extent",
                     id="layout-grid-extent-overflows"),
        pytest.param(lambda t, m: _evaluate(t, _planar(1.5e307)), 2, "extent",
                     id="layout-virtual-grid-extent-overflows"),
        # A spacing the scoring lattice samples fewer than twice per main lobe. At 1e6 the
        # grating-lobe list alone used to hold 2 million angles; at 1e9 evaluate never finished.
        pytest.param(lambda t, m: _evaluate(t, _planar(1e6)), 2, "d_y", id="layout-grid-spacing-1e6"),
        pytest.param(lambda t, m: _evaluate(t, _planar(1e9)), 2, "d_y", id="layout-grid-spacing-1e9"),
        pytest.param(lambda t, m: _design(t, target_ufov_az=10.0), 2, "d_y",
                     id="design-lobe-below-two-samples"),
        # A subnormal target angle used to overflow: a traceback and exit 1 for the HPBW,
        # and "grid extent must be finite, got (nan, ...)" for the uFOV.
        pytest.param(lambda t, m: _design(t, target_hpbw_az=1e-320), 2, "target_hpbw_az",
                     id="design-hpbw-target-overflows"),
        pytest.param(lambda t, m: _design(t, target_ufov_az=1e-320), 2, "target_ufov_az",
                     id="design-ufov-target-overflows"),
        # A target this bright used to exit 0 with a NaN PSLR, after a RuntimeWarning.
        pytest.param(lambda t, m: _evaluate(t, layout_to_dict(ula_layout(8)))
                     + ["--grid-oversample", "2", "--target=0,0,1e308,1e308"], 2, "target amplitudes",
                     id="evaluate-target-overflows"),
        # The pattern writer opens its file itself: a failed open is still an I/O error.
        pytest.param(lambda t, m: _pattern_csv_taken(t, _evaluate(t, layout_to_dict(ula_layout(8)))),
                     1, "pattern.csv", id="evaluate-pattern-csv-is-a-directory"),
        pytest.param(lambda t, m: _pattern_csv_taken(t, _design(t)), 1, "pattern.csv",
                     id="design-pattern-csv-is-a-directory"),
        # A failed write leaves no output of the command, and earlier files as they were.
        pytest.param(lambda t, m: _stale(t, "pattern.csv", _writer_fails(
            m, "write_metrics_json", _evaluate(t, layout_to_dict(ula_layout(8))))),
                     1, "metrics.json", id="evaluate-metrics-write-fails"),
        pytest.param(lambda t, m: _stale(t, "layout.json", _writer_fails(m, "write_manifest", _design(t))),
                     1, "manifest.json", id="design-manifest-write-fails"),
    ],
)
def test_exit_code_contract(argv, code, field, tmp_path, monkeypatch, capsys):
    argv = argv(tmp_path, monkeypatch)
    before = _contents(tmp_path / "o")
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == code
        # A warning the command shows is a line of its own on standard error; Python hides deprecations.
        shown = [str(w.message) for w in caught if not issubclass(w.category, DeprecationWarning)]
        assert not shown, shown
    except SystemExit as exited:
        # Refused by the argument parser: its usage, then one error line.
        assert exited.code == code
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and ": error: " in err.splitlines()[-1]
    else:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err
    assert _contents(tmp_path / "o") == before


# A child limited to 1 GiB of address space, ample for numpy: a lattice allocated
# before the check fails at once instead of filling the host.
_UNDER_1_GIB = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))
from saf.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    # Two TX and two RX on a 2^33-node line: its lattice at q=1 would take 128 GiB.
    pytest.param(lambda t: _evaluate(t, {**layout_to_dict(linear_layout([1, 3], tx_nodes=[0, 5])),
                                         "grid": {"d_y": 0.5, "d_z": 0.5, "M": 2 ** 33, "N": 1}})
                 + ["--grid-oversample", "1"], id="evaluate"),
    pytest.param(lambda t: _design(t, target_hpbw_az=math.degrees(0.886 / 2 ** 33)), id="design"),
])
def test_lattice_too_large_to_allocate_exits_2(argv, tmp_path):
    pytest.importorskip("resource")
    result = subprocess.run([sys.executable, "-c", _UNDER_1_GIB, *argv(tmp_path)],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: the scoring lattice") and result.stderr.count("\n") == 1


def _loaded(modules, statements: str) -> set:
    """Which of ``modules`` a new interpreter has imported after running ``statements``."""
    result = subprocess.run([sys.executable, "-c", f"import sys\n{statements}\n"
                             f"print(*sorted(set({tuple(modules)!r}) & set(sys.modules)))"],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


def _main_exits_0(argv) -> str:
    """Statements that run ``saf.cli.main(argv)`` and assert it returned or exited 0."""
    return f"""
from saf.cli import main
try:
    code = main({argv!r})
except SystemExit as exited:
    code = exited.code
assert code == 0, code
"""


@pytest.mark.parametrize("argv, stream", [
    (lambda t: _evaluate(t, layout_to_dict(ula_layout(8))), False),
    (lambda t: _report(t, _META, _ITERATION, _SUMMARY), False),
    (lambda t: ["--version"], False),
    (lambda t: _design(t) + ["--threads", "1"], True),
], ids=["evaluate", "report", "version", "design"])
def test_no_command_loads_openssl_or_numpy_random(argv, stream, tmp_path):
    # _hashlib (OpenSSL) is 3.5 MB of RSS, and numpy.random 6.3 MB with it. design seeds its search
    # from saf._stream and takes its manifest digest with the built-in SHA-256; no other command
    # compiles the stream. numpy 1.x loads numpy.random, and with it OpenSSL, on import.
    heavy = {"_hashlib", "numpy.random"} - _loaded({"_hashlib", "numpy.random"}, "import numpy")
    loaded = _loaded(heavy | {"saf._stream"}, _main_exits_0(argv(tmp_path)))
    assert loaded == ({"saf._stream"} if stream else set())


@pytest.mark.parametrize("argv", [
    lambda t: _evaluate(t, layout_to_dict(ula_layout(8))),
    lambda t: _design(t) + ["--threads", "1"],
], ids=["evaluate", "design"])
def test_numpy_ma_is_not_loaded(argv, tmp_path):
    # numpy 2.4's np.unique imports numpy.ma on its first call: 14-24 ms and 1.27 MB per command.
    if _loaded({"numpy.ma"}, "import numpy"):
        pytest.skip("importing numpy loads numpy.ma")
    assert not _loaded({"numpy.ma"}, _main_exits_0(argv(tmp_path)))


@pytest.mark.parametrize(
    "point, message",
    [({"bogus": 1}, "cannot set 'bogus'"), ({"k_max": 0}, "k_max must be >= 1"),
     ({"intensity": "x"}, "intensity"), ({"seed": 3}, "seed"), (5, "expected an object"),
     ({"intensity": 2 ** 32}, "intensity must be in [0, 2**32 - 1]")],
)
def test_invalid_outer_loop_point_exits_2_before_optimizing(point, message, tmp_path, monkeypatch,
                                                             capsys):
    assert main(_no_search(monkeypatch, _design(tmp_path, outer_loop=[{"intensity": 2}, point]))) == 2
    err = capsys.readouterr().err
    assert "outer_loop[1]" in err and message in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config", [{"intensity": 2 ** 32 - 1}, {"outer_loop": [{"intensity": 2 ** 32 - 1}]}],
                         ids=["config", "outer-loop"])
def test_the_largest_intensity_the_search_can_draw_designs(config, tmp_path):
    assert main(_design(tmp_path, **config)) == 0


def test_narrow_ufov_designs_when_finely_sampled(tmp_path):
    config = {"target_ufov_az": 1.0, "q_phi": 64, "target_hpbw_az": math.degrees(0.886 / 400)}
    assert main(_design(tmp_path, **config)) == 0


def test_evaluate_reproduces_the_design_metrics(tmp_path):
    # A 30-degree elevation uFOV gives d_z = 1: the v = +-1 grating lobes equal the main
    # lobe, and both commands score inside the grid's uFOV, |v| <= 0.5, where they are absent.
    assert main(_design(tmp_path, dimensionality="2D", target_ufov_el=30.0,
                        target_hpbw_el=math.degrees(0.886 / 6.0005), q_theta=4)) == 0
    evaluated = tmp_path / "e"
    assert main(["evaluate", "--layout", str(tmp_path / "o" / "layout.json"),
                 "--out", str(evaluated), "--grid-oversample", "4"]) == 0
    designed = json.loads((tmp_path / "o" / "metrics.json").read_text())
    assert designed["pslr_db"] > 0.0
    assert json.loads((evaluated / "metrics.json").read_text()) == designed


@pytest.mark.parametrize("builtin", [True, False], ids=["built-in", "hashlib"])
def test_spec_hash_is_the_sha256_of_the_canonical_json(builtin, monkeypatch):
    if not builtin:  # an interpreter built without _sha2 or _sha256
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
    raw = {**design_config(), "zones": [{"kind": "tx-excluded", "center": [4, 0]}], "név": "ü"}
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    assert spec_hash(raw) == hashlib.sha256(canonical.encode()).hexdigest()


def test_spec_hash_covers_the_command_line_overrides(tmp_path):
    args = _design(tmp_path) + ["--seed", "11", "--grid-oversample", "2"]
    assert main(args) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    expected = spec_hash({**design_config(), "seed": 11, "q_phi": 2, "q_theta": 2})
    assert manifest["spec_hash"] == expected


class TestSubprocessEntryPoint:
    def test_module_invocation(self, tmp_path):
        config = tmp_path / "design.json"
        config.write_text(json.dumps(design_config(k_max=20)))
        out = tmp_path / "run"
        result = subprocess.run(
            [sys.executable, "-m", "saf.cli", "design", "--config", str(config),
             "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "best PSLR" in result.stdout
        report = subprocess.run(
            [sys.executable, "-m", "saf.cli", "report", "--trace", str(out / "trace.jsonl")],
            capture_output=True,
            text=True,
        )
        assert report.returncode == 0
        assert "termination:" in report.stdout

    def test_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # Left unset, OPENBLAS_NUM_THREADS is set to 1 by saf itself. A second
        # OpenBLAS thread changes the last bits of the beamformer's matrix product.
        save_layout(layout_12x16(0), tmp_path / "layout.json")
        unset = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        written = []
        for env in (unset, {**unset, "OPENBLAS_NUM_THREADS": "1"}):
            out = tmp_path / f"o{len(written)}"
            result = subprocess.run(
                [sys.executable, "-m", "saf.cli", "evaluate", "--layout", str(tmp_path / "layout.json"),
                 "--out", str(out), "--grid-oversample", "4"],
                capture_output=True, text=True, env=env,
            )
            assert result.returncode == 0, result.stderr
            written.append(_contents(out))
        assert written[0] == written[1]


class TestReportCommand:
    def write_trace(self, path, iterations, termination="budget", initial=1.0):
        # A budget ends a search after exactly k_max iterations, and a search runs at least one.
        k_max = max(len(iterations), 1)
        lines = [json.dumps({"type": "meta", "seed": 0, "k_max": k_max, "initial_pslr_db": initial})]
        best = initial
        improvements = 0
        for k, (cand, accepted) in enumerate(iterations, start=1):
            if accepted:
                best = cand
                improvements += 1
            lines.append(json.dumps({
                "type": "iteration", "k": k, "candidate_pslr_db": cand,
                "best_pslr_db": best, "accepted": accepted,
            }))
        lines.append(json.dumps({
            "type": "summary", "termination": termination, "final_pslr_db": best,
            "improvements": improvements, "iterations": len(iterations),
        }))
        path.write_text("\n".join(lines) + "\n")

    def test_empty_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        self.write_trace(path, [], termination="plateau")
        assert main(["report", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "iterations: 0" in out
        assert "termination: plateau" in out

    def test_three_improvements(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        self.write_trace(path, [(2.0, True), (1.5, False), (3.0, True), (4.0, True)])
        assert main(["report", "--trace", str(path)]) == 0
        assert "improvements: 3" in capsys.readouterr().out

    def test_non_monotone_trace_rejected(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        self.write_trace(path, [(2.0, True), (3.0, True)])
        tampered = path.read_text().splitlines()
        record = json.loads(tampered[2])
        record["best_pslr_db"] = 0.5
        tampered[2] = json.dumps(record)
        path.write_text("\n".join(tampered) + "\n")
        assert main(["report", "--trace", str(path)]) == 2
        assert "decreases" in capsys.readouterr().err

    @pytest.mark.parametrize("records, message", [
        # The search writes no iteration line only when its initial PSLR is its final one.
        ([{**_META, "initial_pslr_db": 5.0},
          {**_SUMMARY, "final_pslr_db": 9.0, "improvements": 0, "iterations": 0}], "summary.final_pslr_db"),
        # The first best is the initial PSLR or a candidate above it.
        ([{**_META, "initial_pslr_db": 5.0}, _ITERATION, _SUMMARY], "decreases"),
        # A rejected candidate leaves the best as it was.
        ([_META, {**_ITERATION, "accepted": False}, {**_SUMMARY, "improvements": 0}], "acceptance rule"),
        # The search stops by k_max at the latest, and on its budget only there.
        ([_META, _ITERATION, {**_ITERATION, "k": 2, "candidate_pslr_db": 1.5, "accepted": False},
          {**_SUMMARY, "termination": "plateau", "iterations": 2}], "k_max 1"),
        ([{**_META, "k_max": 2}, _ITERATION, _SUMMARY], "k_max 2"),
        ([{**_META, "k_max": 1.0}, _ITERATION, _SUMMARY], "meta.k_max"),
        ([{**_META, "k_max": 0}, {**_SUMMARY, "termination": "pslr-reached", "final_pslr_db": 1.0,
                                  "improvements": 0, "iterations": 0}], "k_max 0"),
    ], ids=["final-without-iterations", "first-best-below-initial", "best-rises-unaccepted",
            "iterations-over-k_max", "budget-before-k_max", "k_max-not-an-integer", "k_max-below-one"])
    def test_trace_the_search_cannot_write_rejected(self, records, message, tmp_path, capsys):
        assert main(_report(tmp_path, *records)) == 2
        assert message in capsys.readouterr().err

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self.write_trace(path, [(2.0, True), (1.5, False)])
        trace = read_trace(path)
        path.write_text("\n" + "\n  \n".join(path.read_text().splitlines()) + "\n\t\n")
        assert read_trace(path) == trace

    def test_truncated_trace_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self.write_trace(path, [(2.0, True)])
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop the summary
        assert main(["report", "--trace", str(path)]) == 2

    def test_round_trip_with_real_run(self, tmp_path):
        spec_args = dict(
            dimensionality="1D", n_tx=3, n_rx=3, target_ufov_az=90.0,
            target_hpbw_az=math.degrees(0.886 / 16.0005),
            tx_size=ElementSize(0.4, 0.4), rx_size=ElementSize(0.4, 0.4),
            k_max=30, seed=2, q_phi=4,
        )
        from saf.io import write_trace_jsonl

        _, trace = optimize(DesignSpec(**spec_args))
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(trace, path, seed=2, k_max=30)
        assert read_trace(path) == trace


# Arbitrary JSON, weighted towards the values a reader is most likely to mishandle.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([math.inf, -math.inf, 1e308, -1e308]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_ZONE = {"y_mc": 0.5, "z_mc": 0.5, "center": [2, 0], "kind": "tx-excluded"}
_LAYOUT = {**_planar(0.5), "enforced_tx": [[0, 0]], "zones": [_ZONE]}
_CONFIG = design_config(zones=[_ZONE], enforced_tx=[[0, 0]],
                        outer_loop=[{"intensity": 2, "zones": [], "target_ufov_az": 60.0}])


def _paths(value, path=()):
    """Every location in a JSON value: the value itself, then its members, recursively."""
    yield path
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _paths(item, path + (key,))


def _replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


def _one_field_fuzzed(valid, paths):
    return st.sampled_from(paths).flatmap(lambda path: _JSON.map(lambda new: _replaced(valid, path, new)))


_FUZZ = settings(max_examples=300, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestReadersOnFuzzedInput:
    """One field of a valid file replaced by arbitrary JSON: each reader returns or raises
    ValueError. Nothing here designs or evaluates: a fuzzed grid can be arbitrarily large."""

    @_FUZZ
    @given(raw=_one_field_fuzzed(_LAYOUT, list(_paths(_LAYOUT))))
    def test_layout(self, raw, tmp_path):
        try:
            load_layout(_file(tmp_path, "layout.json", raw))
        except ValueError:
            pass

    @_FUZZ
    @given(raw=_one_field_fuzzed(_CONFIG, list(_paths(_CONFIG))))
    def test_design_config(self, raw, tmp_path):
        try:
            load_design_config(_file(tmp_path, "design.json", raw))
        except ValueError:
            pass

    @pytest.mark.parametrize("records, field", [
        ([_META, {**_ITERATION, "k": True}, _SUMMARY], "iteration 1.k"),
        ([_META, {**_ITERATION, "accepted": 1}, _SUMMARY], "iteration 1.accepted"),
        ([_META, {**_ITERATION, "accepted": "no"}, _SUMMARY], "iteration 1.accepted"),
        ([_META, _ITERATION, {**_SUMMARY, "iterations": True}], "summary.iterations"),
        ([_META, _ITERATION, {**_SUMMARY, "improvements": True}], "summary.improvements"),
        ([_META, _ITERATION, {**_SUMMARY, "termination": None}], "summary.termination"),
        ([_META, _ITERATION, {**_SUMMARY, "termination": 3}], "summary.termination"),
        ([_META, _ITERATION, {**_SUMMARY, "termination": "done"}], "summary.termination"),
    ], ids=["k-true", "accepted-1", "accepted-string", "iterations-true", "improvements-true",
            "termination-null", "termination-number", "termination-unknown"])
    def test_trace_types_are_not_converted(self, records, field, tmp_path, capsys):
        # JSON true equals 1 and any non-empty string is truthy: both used to pass,
        # as did any termination, printed through str().
        assert main(_report(tmp_path, *records)) == 2
        assert field in capsys.readouterr().err

    @_FUZZ
    @given(records=_one_field_fuzzed([_META, _ITERATION, _SUMMARY],
                                     list(_paths([_META, _ITERATION, _SUMMARY]))[1:]))
    def test_trace_and_report(self, records, tmp_path, capsys):
        argv = _report(tmp_path, *records)
        try:
            read_trace(argv[-1])
        except ValueError:
            pass
        assert main(argv) in (0, 2)
        err = capsys.readouterr().err
        assert err == "" or (err.startswith("error: ") and err.count("\n") == 1)
