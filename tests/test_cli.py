import argparse
import io
import json
import math
import os
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from sshcsim import WeakExcitationWarning, cli, run, transient
from sshcsim.cli import main
from sshcsim.config import ConfigError, parse_config, parse_quantity


class TestQuantityParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("10nF", 10e-9),
            ("50uA", 50e-6),
            ("100Hz", 100.0),
            ("2.4V", 2.4),
            ("1e-6s", 1e-6),
            ("3.3", 3.3),
            ("1MOhm", 1e6),
            ("inf", math.inf),
            ("5pF", 5e-12),
        ],
    )
    def test_quantities(self, text, expected):
        assert parse_quantity(text) == pytest.approx(expected, rel=1e-12)

    def test_garbage_names_key(self):
        with pytest.raises(ConfigError) as exc:
            parse_quantity("abc", "cap_cp")
        assert "cap_cp" in str(exc.value)


class TestParseConfig:
    def test_empty_gives_documented_defaults(self):
        cfg = parse_config()
        assert cfg.cap_ct == cfg.cap_cp
        assert cfg.storage_vs + 2 * cfg.diode_drop_vd == pytest.approx(2.4)
        assert cfg.n_cycles == 10
        assert math.isinf(cfg.res_rp)

    def test_ratio_shorthand(self):
        cfg = parse_config(overrides={"cap_ct": "100x"})
        assert cfg.cap_ct == pytest.approx(100 * cfg.cap_cp, rel=1e-12)

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            "cap_cp = 22nF\n"
            "cap_ct = 2x  # twice cp\n"
            "n_cycles = 5\n"
        )
        cfg = parse_config(str(path), overrides={"n_cycles": "7"})
        assert cfg.cap_cp == pytest.approx(22e-9)
        assert cfg.cap_ct == pytest.approx(44e-9)
        assert cfg.n_cycles == 7

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(overrides={"cap_zz": "1"})
        assert "cap_zz" in str(exc.value)

    def test_negative_dt_named(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(overrides={"dt": "-1e-6"})
        assert "dt" in str(exc.value)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("amplitude_ip", "inf"),
            ("cap_cp", "inf"),
            ("amplitude_ip", "NaN"),
            ("diode_drop_vd", "NaN"),
            ("cap_ct", "infx"),
        ],
    )
    def test_non_finite_value_named(self, key, value):
        with pytest.raises(ConfigError) as exc:
            parse_config(overrides={key: value})
        assert exc.value.key == key

    def test_infinite_leakage_resistance_allowed(self):
        assert math.isinf(parse_config(overrides={"res_rp": "inf"}).res_rp)

    def test_echo_round_trips(self):
        cfg = parse_config(overrides={"cap_ct": "3x", "frequency": "217Hz"})
        again = parse_config(overrides=cfg.echo())
        assert again == cfg


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


class TestAnalyzeCommand:
    def test_equal_caps_table(self, tmp_path):
        out = str(tmp_path)
        assert main(["analyze", "--ct-ratio", "1", "--cycles", "10", "--out-dir", out]) == 0
        with open(os.path.join(out, "flip_series.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "n,efficiency,vt_V,closed_form"
        rows = [line.split(",") for line in lines[1:]]
        assert float(rows[0][1]) == pytest.approx(0.25, abs=1e-12)
        assert float(rows[9][1]) == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_large_ratio_long_series(self, tmp_path):
        out = str(tmp_path)
        assert main(["analyze", "--ct-ratio", "100", "--cycles", "300", "--out-dir", out]) == 0
        with open(os.path.join(out, "flip_series.csv"), encoding="utf-8") as fh:
            last = fh.read().splitlines()[-1].split(",")
        assert float(last[1]) == pytest.approx(0.4975, rel=5e-3)

    def test_zero_threshold_keeps_vt_in_volts(self, tmp_path):
        # With vs + 2*vd = 0, C_T never charges: vt_V is 0 V, while the
        # efficiencies still follow the closed form.
        out = str(tmp_path)
        argv = ["analyze", "--set", "storage_vs=0", "--set", "diode_drop_vd=0", "--cycles", "3"]
        assert main(argv + ["--out-dir", out]) == 0
        with open(os.path.join(out, "flip_series.csv"), encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        assert [row[2] for row in rows] == ["0", "0", "0"]
        assert [row[1] for row in rows] == [row[3] for row in rows]

    def test_summary_contents(self, tmp_path):
        out = str(tmp_path)
        main(["analyze", "--out-dir", out])
        with open(os.path.join(out, "summary.csv"), encoding="utf-8") as fh:
            summary = dict(line.split(",") for line in fh.read().splitlines()[1:])
        assert float(summary["steady_state_efficiency"]) == pytest.approx(1.0 / 3.0)
        assert float(summary["optimal_single_flip_ct_F"]) == pytest.approx(10e-9)

    @pytest.mark.parametrize("spelling", ["set", "config_file"])
    def test_full_bridge_is_a_config_error(self, tmp_path, capsys, spelling):
        # The full bridge has no C_T, so it has no flip series to write.
        out = str(tmp_path / "out")
        if spelling == "set":
            flag = ["--set", "full_bridge=true"]
        else:
            path = tmp_path / "run.cfg"
            path.write_text("full_bridge = true\n", encoding="utf-8")
            flag = ["--config", str(path)]
        assert main(["analyze", "--out-dir", out] + flag) == 2
        assert capsys.readouterr().err.startswith("error: config: full_bridge: ")
        assert not os.path.exists(out)


class TestSimulateCommand:
    def test_default_run_reaches_fig5_levels(self, tmp_path):
        out = str(tmp_path)
        assert main(["simulate", "--out-dir", out]) == 0
        with open(os.path.join(out, "flip_events.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "cycle,t_s,v_before_V,v_after_V,efficiency"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 20
        last_pos = rows[-2]  # flip 19: positive-to-negative at steady state
        assert float(last_pos[2]) == pytest.approx(2.4, abs=1e-9)
        assert float(last_pos[3]) == pytest.approx(-0.8, abs=0.005)

    def test_waveform_csv_and_svg(self, tmp_path):
        out = str(tmp_path)
        assert main(["simulate", "--cycles", "2", "--svg", "--out-dir", out]) == 0
        with open(os.path.join(out, "waveform.csv"), encoding="utf-8") as fh:
            header = fh.readline().strip()
        assert header == "t_s,vpt_V,vt_V,vs_V,phase"
        assert os.path.exists(os.path.join(out, "waveform.svg"))
        assert os.path.exists(os.path.join(out, "efficiency.svg"))

    def test_full_bridge_has_no_events(self, tmp_path):
        out = str(tmp_path)
        assert main(["simulate", "--full-bridge", "--cycles", "2", "--out-dir", out]) == 0
        with open(os.path.join(out, "flip_events.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 1  # header only

    def test_determinism(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["simulate", "--cycles", "3", "--out-dir", out1])
        main(["simulate", "--cycles", "3", "--out-dir", out2])
        for name in ("waveform.csv", "flip_events.csv"):
            with open(os.path.join(out1, name), "rb") as f1, open(
                os.path.join(out2, name), "rb"
            ) as f2:
                assert f1.read() == f2.read()


    @pytest.mark.parametrize(
        "sets",
        [["res_rp=1Mohm"], ["storage_cs=1uF"], ["res_rp=1Mohm", "frequency=217Hz"]],
        ids=["leaky", "finite_storage", "leaky_217Hz"],
    )
    def test_no_repeated_timestamps(self, tmp_path, sets):
        out = str(tmp_path)
        argv = ["simulate", "--cycles", "2", "--out-dir", out]
        assert main(argv + [arg for s in sets for arg in ("--set", s)]) == 0
        with open(os.path.join(out, "waveform.csv"), encoding="utf-8") as fh:
            t_s = [line.split(",", 1)[0] for line in fh.read().splitlines()[1:]]
        assert [a for a, b in zip(t_s, t_s[1:]) if a == b] == []


class TestSimulateSvg:
    def test_one_walk_evaluates_each_sample_once(self, tmp_path, monkeypatch):
        # waveform.csv and waveform.svg come from one walk: _pieces is called
        # over numpy arrays once per half cycle, and no column is read.
        pieces, calls = transient._pieces, []

        def counted(h, lo, hi, c, m=np):
            if m is np:
                calls.append(h)
            return pieces(h, lo, hi, c, m)

        def no_column(self, name):
            raise AssertionError(f"column {name} read")

        monkeypatch.setattr(transient, "_pieces", counted)
        monkeypatch.setattr(transient.Waveform, "_column", no_column)
        assert main(["simulate", "--cycles", "10", "--svg", "--out-dir", str(tmp_path)]) == 0
        assert len(calls) == 20
        assert os.path.exists(os.path.join(str(tmp_path), "waveform.svg"))

    @pytest.mark.parametrize("read", ["write_csv", "t", "vpt", "vt", "vs", "phase"])
    def test_each_reader_walks_once(self, monkeypatch, read):
        # write_csv without a chart and a read of any column take their rows
        # from one walk too: _pieces is called over numpy arrays once per half
        # cycle. The clamp rows run() left pending are searched at the first
        # read and kept, so a second read searches none.
        wf = run(parse_config(overrides={"n_cycles": "10"}).sim_config()).waveform
        pieces, clamp_row, calls, searches = transient._pieces, transient._clamp_row, [], []

        def counted(h, lo, hi, c, m=np):
            if m is np:
                calls.append(h)
            return pieces(h, lo, hi, c, m)

        def searched(*args, **kwargs):
            searches.append(args)
            return clamp_row(*args, **kwargs)

        monkeypatch.setattr(transient, "_pieces", counted)
        monkeypatch.setattr(transient, "_clamp_row", searched)
        for first in (True, False):
            if read == "write_csv":
                wf.write_csv(io.StringIO())
            else:
                assert len(getattr(wf, read)) == len(wf)
            assert len(calls) == 20
            assert bool(searches) == first
            calls.clear()
            searches.clear()

    def test_svg_memory_does_not_grow_with_the_run(self, tmp_path):
        # Traced bytes, so deterministic. The chart holds at most four points
        # per pixel column and series, not the samples: at dt = T/1000, --svg
        # adds under 1 MB to the peak at 10 and at 100 cycles (0.9 and 7.8 MB
        # when it read whole columns), and about the same at both.
        out = str(tmp_path)
        main(["simulate", "--cycles", "1", "--svg", "--out-dir", out])  # one-time allocations
        added = []
        for cycles in ("10", "100"):
            peaks = []
            for svg in ([], ["--svg"]):
                tracemalloc.start()
                try:
                    main(["simulate", "--cycles", cycles, "--set", "dt=1e-5", "--out-dir", out] + svg)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            added.append(peaks[1] - peaks[0])
        assert max(added) < 1_000_000, added
        assert added[1] < added[0] + 250_000, added


class TestSweepAndCompare:
    def test_sweep_ct_schema(self, tmp_path):
        out = str(tmp_path)
        code = main(
            ["sweep", "--axis", "ct", "--min", "0.1", "--max", "100", "--points", "20", "--out-dir", out]
        )
        assert code == 0
        with open(os.path.join(out, "sweep_ct.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "axis,q_gen_C,q_wasted_C,q_harvested_C,power_W,eta"
        assert len(lines) == 21

    def test_sweep_vs_full_bridge(self, tmp_path):
        out = str(tmp_path)
        code = main(
            [
                "sweep", "--axis", "vs", "--min", "0", "--max", "10", "--points", "30",
                "--set", "full_bridge=true", "--out-dir", out,
            ]
        )
        assert code == 0
        assert os.path.exists(os.path.join(out, "sweep_vs.csv"))

    @pytest.mark.parametrize("flag", [["--full-bridge"], ["--set", "full_bridge=true"]])
    def test_sweep_ct_full_bridge_is_a_config_error(self, tmp_path, capsys, flag):
        out = str(tmp_path / "out")
        argv = ["sweep", "--axis", "ct", "--min", "0.1", "--max", "10", "--out-dir", out]
        assert main(argv + flag) == 2
        assert capsys.readouterr().err.startswith("error: config: full_bridge: ")
        assert not os.path.exists(out)

    def test_compare_reports_both_modes(self, tmp_path):
        out = str(tmp_path)
        assert main(["compare", "--out-dir", out]) == 0
        with open(os.path.join(out, "compare.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[1].startswith("full_bridge,")
        assert lines[2].startswith("sshc,")
        fb = float(lines[1].split(",")[3])
        sshc = float(lines[2].split(",")[3])
        assert sshc >= fb


class TestManifestAndErrors:
    def test_zero_phase_gap_runs_as_echoed(self, tmp_path):
        out = str(tmp_path)
        configs = []

        def kept_run(cfg):
            configs.append(cfg)
            return run(cfg)

        with mock.patch.object(cli, "run", kept_run):
            assert main(["simulate", "--cycles", "1", "--set", "phase_gap=0", "--out-dir", out]) == 0
        assert read_manifest(out)["config_echo"]["phase_gap"] == "0.0"
        assert [cfg.phase_gap for cfg in configs] == [0.0]

    def test_manifest_lists_every_file(self, tmp_path):
        out = str(tmp_path)
        main(["simulate", "--cycles", "1", "--svg", "--out-dir", out])
        manifest = read_manifest(out)
        on_disk = {os.path.join(out, name) for name in os.listdir(out)}
        assert set(manifest["output_paths"]) == on_disk
        assert manifest["subcommand"] == "simulate"
        assert manifest["tool_version"]

    @pytest.mark.parametrize(
        "argv, ran",
        [
            (["simulate", "--cycles", "1", "--svg"], {"resolve", "engine", "csv", "svg"}),
            (["simulate", "--cycles", "1"], {"resolve", "engine", "csv"}),
            (["analyze", "--svg"], {"resolve", "engine", "csv", "svg"}),
            (["sweep", "--axis", "vs", "--min", "0", "--max", "5", "--points", "3"],
             {"resolve", "engine", "csv"}),
            (["compare"], {"resolve", "engine", "csv"}),
        ],
    )
    def test_manifest_times_each_stage(self, tmp_path, argv, ran):
        out = str(tmp_path)
        assert main(argv + ["--out-dir", out]) == 0
        manifest = read_manifest(out)
        timings = manifest["timings_s"]
        assert set(timings) == {"resolve", "engine", "csv", "svg"}
        assert {stage for stage, seconds in timings.items() if seconds > 0.0} == ran
        assert manifest["python_version"] == "%d.%d.%d" % sys.version_info[:3]
        assert manifest["numpy_version"] == np.__version__

    def test_manifest_config_echo_round_trips(self, tmp_path):
        out = str(tmp_path)
        main(["simulate", "--cycles", "1", "--out-dir", out])
        manifest = read_manifest(out)
        cfg = parse_config(overrides=manifest["config_echo"])
        assert cfg.echo() == manifest["config_echo"]

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = main(["simulate", "--set", "dt=-1", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "error: config" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["amplitude_ip", "cap_cp"])
    def test_infinite_value_exit_code(self, tmp_path, capsys, key):
        code = main(["simulate", "--cycles", "1", "--set", f"{key}=inf", "--out-dir", str(tmp_path)])
        assert code == 2
        assert key in capsys.readouterr().err

    def test_weak_excitation_warns_once(self, tmp_path, capsys):
        argv = ["simulate", "--cycles", "1", "--set", "amplitude_ip=1uA", "--out-dir", str(tmp_path)]
        with pytest.warns(WeakExcitationWarning) as record:
            assert main(argv) == 0
        assert len(record) == 1
        assert "swing" not in capsys.readouterr().err

    def test_full_bridge_names_a_bad_cap_ct_once(self, tmp_path, capsys):
        # No SSHC network is built in full-bridge mode, so cap_ct is first
        # checked by FlipRatios.from_caps, whose error names cap_ct too.
        argv = ["simulate", "--set", "full_bridge=true", "--set", "cap_ct=0"]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: cap_ct: ") and err.count("cap_ct") == 1, err

    def test_unknown_key_exit_code(self, tmp_path):
        assert main(["analyze", "--set", "bogus=1", "--out-dir", str(tmp_path)]) == 2


class TestExitCodes:
    """Inputs that reach a check after parsing exit 2 and name what to fix."""

    @pytest.mark.parametrize(
        "argv,code,name",
        [
            (["simulate", "--cycles", "1", "--set", "cap_ct=1e17x"], 2, "cap_ct"),
            (["analyze", "--set", "cap_ct=1e17x"], 2, "cap_ct"),
            (["compare", "--set", "cap_ct=1e17x"], 2, "cap_ct"),
            (["analyze", "--set", "cap_ct=1e-30"], 2, "cap_ct"),
            (["sweep", "--axis", "ct", "--min", "0", "--max", "10"], 2, "--min"),
            (["sweep", "--axis", "ct", "--min", "1", "--max", "10", "--points", "0"], 2, "--points"),
            (["sweep", "--axis", "ct", "--min", "10", "--max", "1"], 2, "--max"),
            (["sweep", "--axis", "ct", "--min", "1", "--max", "1e20"], 2, "--max"),
            (["sweep", "--axis", "vs", "--min", "-1", "--max", "10"], 2, "--min"),
            (["sweep", "--axis", "vs", "--min", "1", "--max", "1", "--points", "2"], 2, "--points"),
            (["sweep", "--axis", "vs", "--min", "1", "--max", "1", "--points", "1"], 0, None),
            (["sweep", "--axis", "ct", "--min", "1", "--max", "1", "--points", "1"], 0, None),
            (["sweep", "--axis", "vs", "--min", "0", "--max", "inf", "--points", "1"], 2, "--max"),
            (["sweep", "--axis", "vs", "--min", "nan", "--max", "1", "--points", "2"], 2, "--min"),
            (["sweep", "--axis", "vs", "--min=-inf", "--max", "1"], 2, "--min"),
            (["sweep", "--axis", "ct", "--min", "1", "--max", "inf"], 2, "--max"),
            (["sweep", "--axis", "ct", "--min", "nan", "--max", "10"], 2, "--min"),
            # Sources whose derived rates overflow or lose their digits.
            (["simulate", "--cycles", "1", "--set", "res_rp=1e-300", "--set", "cap_cp=1e-10"],
             2, "res_rp"),
            (["simulate", "--cycles", "1", "--set", "cap_cp=1e-320"], 2, "cap_cp"),
            (["simulate", "--cycles", "1", "--set", "cap_cp=1e-320", "--set", "amplitude_ip=1e-12"],
             2, "cap_cp"),
            (["simulate", "--cycles", "1", "--set", "frequency=1e-320"], 2, "frequency"),
            (["simulate", "--cycles", "1", "--set", "frequency=1e308"], 2, "frequency"),
            # Values that do not parse, and an override without "=".
            (["simulate", "--cycles", "1", "--set", "cap_ct=abcx"], 2, "cap_ct"),
            (["simulate", "--set", "n_cycles=1.5"], 2, "n_cycles"),
            (["simulate", "--cycles", "1", "--set", "cap_ct"], 2, "cap_ct"),
            # One point on the x axis: each chart widens its x and y ranges.
            (["analyze", "--cycles", "1", "--svg"], 0, None),
            (["sweep", "--axis", "ct", "--min", "2", "--max", "2", "--points", "1", "--svg"], 0, None),
            # Counts numpy refuses at once: too large to allocate, to size, or to index.
            (["sweep", "--axis", "vs", "--min", "0", "--max", "5", "--points", str(10**15)],
             2, "--points"),
            (["sweep", "--axis", "ct", "--min", "1", "--max", "10", "--points", str(10**15)],
             2, "--points"),
            (["sweep", "--axis", "vs", "--min", "0", "--max", "5", "--points", str(2**62)],
             2, "--points"),
            (["sweep", "--axis", "vs", "--min", "0", "--max", "5", "--points", str(2**63 - 1)],
             2, "--points"),
            # A source and rail whose output power 2*f*(2*I_P/omega)*V_S
            # overflows, set directly or reached by a sweep's end.
            (["compare", "--set", "amplitude_ip=1e150", "--set", "cap_cp=1e-150",
              "--set", "frequency=1", "--set", "storage_vs=1e200"], 2, "storage_vs"),
            (["sweep", "--axis", "vs", "--min", "1", "--max", "1e200", "--set", "amplitude_ip=1e150",
              "--set", "cap_cp=1e-150", "--set", "frequency=1"], 2, "--max"),
            # A config file that is missing, a directory, or not UTF-8.
            (["compare", "--config", "{tmp}/missing.cfg"], 2, "--config"),
            (["compare", "--config", "{tmp}"], 2, "--config"),
            (["compare", "--config", "{tmp}/latin1.cfg"], 2, "--config"),
            # An output directory that is a file, lies under one, or is unnamed.
            (["compare", "--out-dir", "{tmp}/latin1.cfg"], 2, "--out-dir"),
            (["simulate", "--out-dir", "{tmp}/latin1.cfg/sub"], 2, "--out-dir"),
            (["compare", "--out-dir", ""], 2, "--out-dir"),
            # A sweep end whose wasted charge 2*C_P*(V_S + 2*V_D) overflows.
            (["sweep", "--axis", "vs", "--min", "0", "--max", "1e300", "--points", "3",
              "--set", "cap_cp=1e10"], 2, "--max"),
        ],
    )
    def test_exit_code_names_key_or_flag(self, tmp_path, capsys, argv, code, name):
        (tmp_path / "latin1.cfg").write_bytes(b"\xff\n")
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        if "--out-dir" not in argv:
            argv += ["--out-dir", str(tmp_path)]
        assert main(argv) == code
        err = capsys.readouterr().err
        if name is None:
            assert err == ""
        else:
            assert err.startswith("error: config:") and name in err

    def test_config_file_line_without_equals(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("frequency = 100\ncap_ct\n")
        assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: line 2:") and "cap_ct" in err, err

    def test_config_file_with_a_byte_order_mark(self, tmp_path):
        # Some editors begin a UTF-8 file with a byte-order mark; the first
        # key must still be read as the key, not as an unknown one.
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_bytes(b"amplitude_ip = 40uA\ncap_ct = 20nF\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert parse_config(str(marked)) == parse_config(str(plain))
        assert parse_config(str(marked)).amplitude_ip == parse_quantity("40uA")
        assert main(["analyze", "--config", str(marked), "--out-dir", str(tmp_path)]) == 0

    def test_simulation_error_exits_3(self, tmp_path, capsys, monkeypatch):
        # No known input reaches this branch; a ValueError from the engine
        # that no value type caught must still end in exit 3, not a traceback.
        def failing(cfg):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "run", failing)
        assert main(["simulate", "--cycles", "1", "--out-dir", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("error: simulation: boom")


class TestParserReuse:
    """main() builds its parser once per process; no call leaves state in it."""

    def test_built_once(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
        for argv in (["compare"], ["analyze"], ["compare"]):
            assert main(argv + ["--out-dir", str(tmp_path)]) == 0
        assert len(built) <= 5, built  # at most one build: the root and its four subcommands

    def test_set_does_not_carry_over(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["compare", "--set", "storage_vs=3", "--out-dir", a]) == 0
        assert main(["compare", "--out-dir", b]) == 0
        assert read_manifest(a)["config_echo"]["storage_vs"] == "3.0"
        assert read_manifest(b)["config_echo"]["storage_vs"] == "2.0"

    def test_subcommand_defaults_stay_in_their_namespace(self):
        parser = cli._build_parser()
        swept = parser.parse_args(["sweep", "--axis", "vs", "--min", "0", "--max", "1"])
        compared = parser.parse_args(["compare"])
        assert (swept.func, compared.func) == (cli._cmd_sweep, cli._cmd_compare)
        assert sorted(vars(compared)) == [
            "command", "config", "ct_ratio", "func", "out_dir", "set", "svg",
        ]

    @pytest.mark.parametrize(
        "argv, exit_code",
        [
            (["sweep", "--axis", "zz", "--min", "0", "--max", "1"], 2),
            (["--version"], 0),
        ],
        ids=["argparse_error", "version"],
    )
    def test_exit_then_good_call(self, tmp_path, capsys, argv, exit_code):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == exit_code
        capsys.readouterr()
        good = ["sweep", "--axis", "vs", "--min", "0", "--max", "1", "--points", "3"]
        assert main(good + ["--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_config_error_then_good_call(self, tmp_path, capsys):
        assert main(["compare", "--set", "bogus=1", "--out-dir", str(tmp_path / "a")]) == 2
        assert "bogus" in capsys.readouterr().err
        assert main(["compare", "--out-dir", str(tmp_path / "b")]) == 0
        assert capsys.readouterr().err == ""

    def test_reused_parser_writes_the_same_bytes(self, tmp_path):
        calls = [
            ["analyze", "--ct-ratio", "5", "--cycles", "20", "--svg"],
            ["sweep", "--axis", "ct", "--min", "0.5", "--max", "50", "--points", "7", "--svg"],
            ["compare", "--set", "storage_vs=3"],
        ]

        def outputs(root):
            files = {}
            for i, argv in enumerate(calls):
                out = str(tmp_path / root / str(i))
                assert main(argv + ["--out-dir", out]) == 0
                for name in sorted(os.listdir(out)):
                    if name != "manifest.json":  # its timings differ between runs
                        with open(os.path.join(out, name), "rb") as fh:
                            files[i, name] = fh.read()
            return files

        reused = outputs("reused")
        cli._build_parser.cache_clear()
        assert outputs("fresh") == reused


SUBCOMMANDS = [
    ["simulate", "--cycles", "1"],
    ["analyze"],
    ["compare"],
    ["sweep", "--axis", "ct", "--min", "0.1", "--max", "100", "--points", "5"],
    ["sweep", "--axis", "vs", "--min", "0", "--max", "10", "--points", "5"],
]


class TestEveryKeyNamesItself:
    """One out-of-range value per key: parse_config names the key, and every
    subcommand exits 2 with the key named once and the rejected value shown."""

    @pytest.mark.parametrize(
        "key,sets,shown",
        [
            ("amplitude_ip", ["amplitude_ip=0"], "got 0.0"),
            ("frequency", ["frequency=0"], "got 0.0"),
            ("cap_cp", ["cap_cp=-1nF"], "got -1e-09"),
            ("res_rp", ["res_rp=0"], "got 0.0"),
            ("diode_drop_vd", ["diode_drop_vd=-0.1"], "got -0.1"),
            ("storage_vs", ["storage_vs=-1"], "got -1.0"),
            ("storage_vs", ["storage_vs=-1", "storage_cs=1uF"], "got -1.0"),
            ("storage_cs", ["storage_cs=0"], "got 0.0"),
            ("cap_ct", ["cap_ct=1e17x"], "C_T/C_P = 1e+17"),
            ("full_bridge", ["full_bridge=maybe"], "'maybe'"),
            ("dt", ["dt=1e-3"], "got 0.001"),
            ("n_cycles", ["n_cycles=0"], "got 0"),
            ("phase_pulse_width", ["phase_pulse_width=0"], "got 0.0"),
            ("phase_gap", ["phase_gap=-1"], "got -1.0"),
            # A step within a few ulps of the run's last time: the grid cannot advance.
            ("dt", ["dt=1e-300"], "got 1e-300"),
            ("n_cycles", ["n_cycles=1" + "0" * 400], "got 401 digits"),
            # A half-cycle charge 2*I_P/omega that overflows.
            ("amplitude_ip", ["amplitude_ip=1e307", "frequency=1e-5", "cap_cp=1e20"], "got 1e+307"),
        ],
    )
    def test_key_is_named(self, tmp_path, capsys, key, sets, shown):
        overrides = dict(s.split("=", 1) for s in sets)
        with pytest.raises(ConfigError) as exc:
            parse_config(overrides=overrides)
        assert exc.value.key == key
        args = [arg for s in sets for arg in ("--set", s)]
        for sub in SUBCOMMANDS:
            assert main(sub + args + ["--out-dir", str(tmp_path)]) == 2, sub
            err = capsys.readouterr().err
            assert err.startswith(f"error: config: {key}: ") and err.count(key) == 1, err
            assert shown in err, err
