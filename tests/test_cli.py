import json
import math
import os
from unittest import mock

import pytest

from sshcsim import WeakExcitationWarning, cli, run
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

    def test_summary_contents(self, tmp_path):
        out = str(tmp_path)
        main(["analyze", "--out-dir", out])
        with open(os.path.join(out, "summary.csv"), encoding="utf-8") as fh:
            summary = dict(line.split(",") for line in fh.read().splitlines()[1:])
        assert float(summary["steady_state_efficiency"]) == pytest.approx(1.0 / 3.0)
        assert float(summary["optimal_single_flip_ct_F"]) == pytest.approx(10e-9)


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
        ],
    )
    def test_exit_code_names_key_or_flag(self, tmp_path, capsys, argv, code, name):
        assert main(argv + ["--out-dir", str(tmp_path)]) == code
        err = capsys.readouterr().err
        if name is None:
            assert err == ""
        else:
            assert err.startswith("error: config:") and name in err
