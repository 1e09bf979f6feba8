import functools
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import energy_attention
from energy_attention import cli
from energy_attention.attention import AttentionContext, build_context
from energy_attention.cli import (
    EXIT_CHECK_FAILED,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_USAGE,
    ConfigError,
    parse_config,
)
from energy_attention.heads import run_head


def run_cli(*argv):
    try:
        return cli.main(list(argv))
    except SystemExit as exc:  # argparse errors
        return exc.code


def write_config(tmp_path, name="config.json", **overrides):
    config = {
        "n": 4,
        "d": 8,
        "d_k": 2,
        "d_v": 2,
        "form": {"kind": "quadratic"},
        "eta": 0.1,
        "t_max": 100,
        "grad_tol": 1e-8,
        "perturb_sigma": 0.0,
        "seed": 7,
        "heads": 1,
    }
    config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


class TestConfigParsing:
    def test_round_trips_through_to_dict(self):
        cfg = parse_config({
            "n": 4, "d": 8, "d_k": 2, "d_v": 2,
            "form": {"kind": "polynomial", "p": 3},
            "seed": 1,
        })
        assert cfg.form.p == 3
        assert cfg.to_dict()["form"] == {"kind": "polynomial", "p": 3}

    def test_missing_keys_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"n": 4})

    def test_seed_is_required_in_a_config(self):
        # the dataclass defaults seed to 0, but a config file must name it
        with pytest.raises(ConfigError, match=r"missing config keys: \['seed'\]"):
            parse_config({"n": 4, "d": 8, "d_k": 2, "d_v": 2, "form": {"kind": "linear"}})

    def test_clip_norm_alone_may_be_null(self):
        base = {"n": 4, "d": 8, "d_k": 2, "d_v": 2, "form": {"kind": "linear"}, "seed": 0}
        assert parse_config({**base, "clip_norm": None}).clip_norm is None
        for key in ("eta", "grad_tol", "perturb_sigma"):
            with pytest.raises(ConfigError, match=f"^{key} must be finite and"):
                parse_config({**base, key: None})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({
                "n": 4, "d": 8, "d_k": 2, "d_v": 2,
                "form": {"kind": "linear"}, "seed": 0, "temperature": 1.0,
            })

    def test_bad_form_kind_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({
                "n": 4, "d": 8, "d_k": 2, "d_v": 2,
                "form": {"kind": "sigmoid"}, "seed": 0,
            })

    def test_dynamics_invariants_revalidated(self):
        with pytest.raises(ConfigError):
            parse_config({
                "n": 4, "d": 8, "d_k": 2, "d_v": 2,
                "form": {"kind": "linear"}, "seed": 0, "eta": -0.5,
            })


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["gen", "--out", "data"], {"out": "data"}),
        (["run", "--in", "data"], {"in_dir": "data", "out": None, "emit_z": False}),
        (["gradcheck", "--out", "gc.json", "--tol", "0.5", "--h", "0.25"],
         {"out": "gc.json", "tol": 0.5, "h": 0.25}),
        (["stationarity"], {"out": None}),
        (["trace", "--out", "trace.csv"], {"out": "trace.csv"}),
        (["sweep", "--param", "eta", "--values", "0.1,0.2", "--out", "sweep.csv"],
         {"param": "eta", "values": "0.1,0.2", "out": "sweep.csv"}),
    ],
)
def test_main_returns_the_subcommands_exit_code(tmp_path, monkeypatch, argv, flags):
    # main only loads the config and dispatches: a stub set on cli.cmd_<name>
    # receives the config and the flags by their argparse dests
    cfg = write_config(tmp_path)
    calls = []

    def stub(config, **kwargs):
        calls.append((config, kwargs))
        return 42

    monkeypatch.setattr(cli, f"cmd_{argv[0]}", stub)
    assert run_cli(*argv, "--config", str(cfg)) == 42
    assert calls == [(cli.load_config(cfg), flags)]


class TestGen:
    def test_writes_four_matrix_files(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run_cli("gen", "--config", str(cfg), "--out", str(tmp_path / "data")) == EXIT_OK
        for name in ("X", "W_q", "W_k", "W_v"):
            assert (tmp_path / "data" / f"{name}.json").exists()

    def test_same_seed_gives_byte_identical_files(self, tmp_path):
        cfg = write_config(tmp_path)
        run_cli("gen", "--config", str(cfg), "--out", str(tmp_path / "a"))
        run_cli("gen", "--config", str(cfg), "--out", str(tmp_path / "b"))
        for name in ("X", "W_q", "W_k", "W_v"):
            assert (tmp_path / "a" / f"{name}.json").read_bytes() == (
                tmp_path / "b" / f"{name}.json"
            ).read_bytes()

    def test_different_seed_gives_different_files(self, tmp_path):
        run_cli("gen", "--config", str(write_config(tmp_path, seed=7)), "--out", str(tmp_path / "a"))
        run_cli("gen", "--config", str(write_config(tmp_path, "c2.json", seed=8)), "--out", str(tmp_path / "b"))
        assert (tmp_path / "a" / "X.json").read_bytes() != (tmp_path / "b" / "X.json").read_bytes()

    def test_shape_echo(self, tmp_path):
        cfg = write_config(tmp_path)
        run_cli("gen", "--config", str(cfg), "--out", str(tmp_path / "data"))
        obj = json.loads((tmp_path / "data" / "X.json").read_text())
        assert obj["rows"] == 4 and obj["cols"] == 8

    def test_prints_the_four_paths_in_draw_order(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        data = tmp_path / "data"
        assert run_cli("gen", "--config", str(cfg), "--out", str(data)) == EXIT_OK
        names = ("X", "W_q", "W_k", "W_v")
        assert capsys.readouterr().out == "".join(f"{data / name}.json\n" for name in names)

    def test_files_match_golden_hashes(self, tmp_path):
        # pins the SplitMix64 + Box-Muller draws and the %.17g file format
        # bit for bit, so a faster generator must reproduce these files
        golden = {
            "X.json": "59fd0914c055f1ba3a5ed4cdeab6644fb5a1cc83b0bedf4e666d722676fbf11d",
            "W_q.json": "c02ad7a4391728bd236542973e2b144457e961fc0b4adadd67754cf6600f3be3",
            "W_k.json": "d70bae0d62bf9bac9eba10a0ffeac087ff7d6a4fa9fa773a882d3ca682111457",
            "W_v.json": "278e23081cb21baf33148ec10dcf730b9d6e3774f7fb37b691c04f4c865085c6",
        }
        cfg = write_config(tmp_path, n=4, d=8, d_k=2, d_v=2, seed=7)
        assert run_cli("gen", "--config", str(cfg), "--out", str(tmp_path / "data")) == EXIT_OK
        got = {
            name: hashlib.sha256((tmp_path / "data" / name).read_bytes()).hexdigest()
            for name in golden
        }
        assert got == golden


class TestRun:
    def gen_and_run(self, tmp_path, config_path, *extra):
        data = tmp_path / "data"
        assert run_cli("gen", "--config", str(config_path), "--out", str(data)) == EXIT_OK
        report_path = tmp_path / "report.json"
        code = run_cli(
            "run", "--config", str(config_path), "--in", str(data), "--out", str(report_path), *extra
        )
        report = json.loads(report_path.read_text()) if report_path.exists() else None
        return code, report

    def test_linear_head_reports_zero_iterations(self, tmp_path):
        cfg = write_config(tmp_path, form={"kind": "linear"})
        code, report = self.gen_and_run(tmp_path, cfg)
        assert code == EXIT_OK
        head = report["heads"][0]
        assert head["iters"] == 0 and head["converged"]
        assert head["energy_initial"] == head["energy_final"]

    def test_polynomial_one_reports_the_linear_head(self, tmp_path):
        # the same F(u) = u: every head field but the form's name matches
        heads = []
        for form in ({"kind": "linear"}, {"kind": "polynomial", "p": 1}):
            cfg = write_config(tmp_path, form=form, n=6, perturb_sigma=0.5, heads=2)
            code, report = self.gen_and_run(tmp_path, cfg, "--emit-z")
            assert code == EXIT_OK
            heads.append([{k: v for k, v in head.items() if k != "form"} for head in report["heads"]])
        assert json.dumps(heads[1]) == json.dumps(heads[0])
        assert all(head["iters"] == 0 and head["energy_final"] < 0.0 for head in heads[1])

    def test_stationary_start_converges_at_iteration_zero(self, tmp_path):
        cfg = write_config(tmp_path, perturb_sigma=0.0)
        code, report = self.gen_and_run(tmp_path, cfg)
        assert code == EXIT_OK
        head = report["heads"][0]
        assert head["converged"] and head["iters"] == 0

    def test_perturbed_run_decreases_energy(self, tmp_path):
        cfg = write_config(tmp_path, perturb_sigma=0.1, t_max=200, grad_tol=1e-10)
        code, report = self.gen_and_run(tmp_path, cfg)
        assert code == EXIT_OK
        head = report["heads"][0]
        assert head["energy_final"] <= head["energy_initial"]

    def test_report_embeds_resolved_config(self, tmp_path):
        cfg = write_config(tmp_path)
        _, report = self.gen_and_run(tmp_path, cfg)
        assert report["config"]["n"] == 4
        assert report["config"]["form"] == {"kind": "quadratic"}

    def test_emit_z_includes_state(self, tmp_path):
        cfg = write_config(tmp_path)
        _, report = self.gen_and_run(tmp_path, cfg, "--emit-z")
        z = report["heads"][0]["z"]
        assert z["rows"] == 4 and z["cols"] == 2 and len(z["data"]) == 8

    def test_reports_are_byte_identical_across_runs(self, tmp_path):
        cfg = write_config(tmp_path, perturb_sigma=0.1)
        data = tmp_path / "data"
        run_cli("gen", "--config", str(cfg), "--out", str(data))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run_cli("run", "--config", str(cfg), "--in", str(data), "--out", str(out1)) == EXIT_OK
        assert run_cli("run", "--config", str(cfg), "--in", str(data), "--out", str(out2)) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_stdout_report_equals_the_file_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, perturb_sigma=0.1, heads=2)
        code, report = self.gen_and_run(tmp_path, cfg, "--emit-z")
        assert code == EXIT_OK and report is not None
        capsys.readouterr()
        assert run_cli("run", "--config", str(cfg), "--in", str(tmp_path / "data"), "--emit-z") == EXIT_OK
        assert capsys.readouterr().out == (tmp_path / "report.json").read_text()

    def test_multiple_heads_report_one_entry_each(self, tmp_path):
        cfg = write_config(tmp_path, heads=3)
        _, report = self.gen_and_run(tmp_path, cfg)
        assert len(report["heads"]) == 3

    def test_config_shape_mismatch_exits_2(self, tmp_path):
        gen_cfg = write_config(tmp_path)
        data = tmp_path / "data"
        run_cli("gen", "--config", str(gen_cfg), "--out", str(data))
        run_cfg = write_config(tmp_path, "other.json", n=5)
        code = run_cli("run", "--config", str(run_cfg), "--in", str(data), "--out", str(tmp_path / "r.json"))
        assert code == EXIT_USAGE

    def test_missing_input_dir_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        code = run_cli("run", "--config", str(cfg), "--in", str(tmp_path / "nope"), "--out", str(tmp_path / "r.json"))
        assert code == EXIT_USAGE

    def test_malformed_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 4}')
        code = run_cli("run", "--config", str(bad), "--in", str(tmp_path), "--out", str(tmp_path / "r.json"))
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "override",
        [{"eta": [1]}, {"eta": True}, {"eta": 10**400}, {"grad_tol": None}, {"clip_norm": {}}],
    )
    def test_mistyped_config_exits_2(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path, **override)
        code = run_cli("run", "--config", str(cfg), "--in", str(tmp_path), "--out", str(tmp_path / "r.json"))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "body",
        [
            '[["a"]]',
            '{"name": "X", "rows": 4, "cols": 8, "data": {"a": 1}}',
            '{"name": "X", "rows": true, "cols": 8, "data": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]}',
        ],
    )
    def test_malformed_matrix_file_exits_2(self, tmp_path, capsys, body):
        cfg = write_config(tmp_path)
        data = tmp_path / "data"
        run_cli("gen", "--config", str(cfg), "--out", str(data))
        (data / "X.json").write_text(body)
        capsys.readouterr()
        code = run_cli("run", "--config", str(cfg), "--in", str(data), "--out", str(tmp_path / "r.json"))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "data",
        [
            ["1.5", True] + [0.0] * 30,
            [True, False] * 16,
            [0.0] * 31 + [None],
            [[0.0]] * 32,
            [[0.0, 0.0]] + [[0.0]] * 31,
        ],
        ids=["string-and-bool", "all-bool", "null", "nested", "ragged"],
    )
    def test_non_numeric_matrix_entries_exit_2(self, tmp_path, capsys, data):
        # the right length for X (4 x 8), so only the entries are at fault
        cfg = write_config(tmp_path)
        run_cli("gen", "--config", str(cfg), "--out", str(tmp_path / "data"))
        body = {"name": "X", "rows": 4, "cols": 8, "data": data}
        (tmp_path / "data" / "X.json").write_text(json.dumps(body))
        capsys.readouterr()
        code = run_cli("run", "--config", str(cfg), "--in", str(tmp_path / "data"), "--out", str(tmp_path / "r.json"))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    def test_exponential_overflow_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, form={"kind": "exponential"}, perturb_sigma=1e6)
        data = tmp_path / "data"
        run_cli("gen", "--config", str(cfg), "--out", str(data))
        code = run_cli("run", "--config", str(cfg), "--in", str(data), "--out", str(tmp_path / "r.json"))
        assert code == EXIT_DIVERGED

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "overrides",
        [
            {"n": 64, "d_v": 4},
            {"n": 4, "d_v": 2},
            {"n": 4, "d_v": 2, "form": {"kind": "polynomial", "p": 4}},
            # at seed 7 the exponential start's scores are all below -1e306
            {"n": 4, "d_v": 2, "form": {"kind": "exponential"}, "seed": 8},
        ],
    )
    def test_overflowing_start_diverges_quietly_into_standard_json(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path, perturb_sigma=1e308, **overrides)
        code, _ = self.gen_and_run(tmp_path, cfg, "--emit-z")
        assert code == EXIT_DIVERGED
        assert capsys.readouterr().err == ""

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        head = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)["heads"][0]
        assert head["diverged"] and head["energy_initial"] is None
        assert run_cli("trace", "--config", str(cfg), "--out", str(tmp_path / "t.csv")) == EXIT_DIVERGED
        assert capsys.readouterr().err == ""

    def test_one_overflowing_head_still_reports_every_head(self, tmp_path, capsys):
        # head 0 descends; head 1's exponential start leaves the float range
        cfg = write_config(tmp_path, form={"kind": "exponential"}, perturb_sigma=1e4, heads=2)
        code, report = self.gen_and_run(tmp_path, cfg)
        assert code == EXIT_DIVERGED
        assert capsys.readouterr().err == ""
        first, second = report["heads"]
        assert not first["diverged"] and first["iters"] > 0 and first["energy_final"] is not None
        assert second["diverged"] and second["iters"] == 0 and second["energy_initial"] is None

    @pytest.mark.parametrize(
        "overrides",
        [
            {"perturb_sigma": float("nan"), "grad_tol": float("nan")},
            {"perturb_sigma": float("inf")},
            {"eta": float("inf")},
            # would stop every head as converged at iteration 0, then echo
            # back as a null that the config parser rejects
            {"perturb_sigma": 0.5, "grad_tol": float("inf")},
            # would run, exit 0 and echo back as null
            {"perturb_sigma": 0.5, "clip_norm": float("inf")},
        ],
    )
    def test_non_finite_config_values_exit_2(self, tmp_path, capsys, overrides):
        data = tmp_path / "data"
        assert run_cli("gen", "--config", str(write_config(tmp_path)), "--out", str(data)) == EXIT_OK
        capsys.readouterr()
        # json.dumps writes NaN/Infinity, which json.loads reads back as floats
        cfg = write_config(tmp_path, "bad.json", **overrides)
        report = tmp_path / "r.json"
        code = run_cli("run", "--config", str(cfg), "--in", str(data), "--out", str(report))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not report.exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"heads": 3, "perturb_sigma": 0.1, "t_max": 20},
            {"heads": 2, "form": {"kind": "linear"}},
        ],
    )
    def test_heads_share_one_context(self, tmp_path, monkeypatch, overrides):
        config = cli.load_config(write_config(tmp_path, **overrides))
        cli.cmd_gen(config, tmp_path / "data")
        calls = []

        def counting_build_context(*args):
            calls.append(args)
            return build_context(*args)

        monkeypatch.setattr(cli, "build_context", counting_build_context)
        path = tmp_path / "report.json"
        assert cli.cmd_run(config, tmp_path / "data", path, emit_z=True) == EXIT_OK
        report = json.loads(path.read_text())
        assert len(calls) == 1
        monkeypatch.undo()
        x, w = cli.generate_inputs(config)
        assert len(report["heads"]) == config.heads
        for index, entry in enumerate(report["heads"]):
            alone = run_head(x, w, config.head_spec(index))
            assert entry["iters"] == alone.trace.iters
            assert entry["converged"] == alone.trace.converged
            assert entry["diverged"] == alone.trace.diverged
            assert entry["final_grad_norm"] == alone.trace.grad_norms[-1]
            assert entry["energy_initial"] == alone.trace.energies[0]
            assert entry["energy_final"] == alone.trace.energies[-1]
            assert entry["z"]["data"] == alone.z.ravel().tolist()

    def test_heads_share_one_gram_matrix(self, tmp_path, monkeypatch):
        config = cli.load_config(write_config(tmp_path, heads=3, perturb_sigma=0.1, t_max=20))
        cli.cmd_gen(config, tmp_path / "data")
        formed = []
        gram = AttentionContext.__dict__["gram"]

        def counting_gram(ctx):
            formed.append(ctx)
            return gram.func(ctx)

        counting = functools.cached_property(counting_gram)
        counting.__set_name__(AttentionContext, "gram")
        monkeypatch.setattr(AttentionContext, "gram", counting)
        path = tmp_path / "report.json"
        assert cli.cmd_run(config, tmp_path / "data", path) == EXIT_OK
        report = json.loads(path.read_text())
        assert [entry["iters"] > 0 for entry in report["heads"]] == [True] * 3
        assert len(formed) == 1


FORM_CONFIGS = [
    {"kind": "linear"},
    {"kind": "quadratic"},
    {"kind": "polynomial", "p": 3},
    {"kind": "exponential"},
]


class TestGradcheckCommand:
    @pytest.mark.parametrize("form", FORM_CONFIGS)
    def test_default_tolerances_pass(self, tmp_path, form):
        cfg = write_config(tmp_path, form=form)
        out = tmp_path / "gc.json"
        assert run_cli("gradcheck", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["pass"] and len(report["trials"]) == cli.CHECK_TRIALS

    def test_polynomial_degree_four_passes(self, tmp_path):
        cfg = write_config(tmp_path, form={"kind": "polynomial", "p": 4})
        assert run_cli("gradcheck", "--config", str(cfg), "--out", str(tmp_path / "gc.json")) == EXIT_OK

    def test_unreachable_tolerance_fails_but_writes_report(self, tmp_path):
        cfg = write_config(tmp_path, form={"kind": "exponential"})
        out = tmp_path / "gc.json"
        code = run_cli("gradcheck", "--config", str(cfg), "--out", str(out), "--tol", "1e-15")
        assert code == EXIT_CHECK_FAILED
        report = json.loads(out.read_text())
        assert not report["pass"]
        assert all(t["max_rel_err"] > 1e-15 for t in report["trials"])

    def test_report_keys_and_echoed_flags(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "gc.json"
        assert run_cli("gradcheck", "--config", str(cfg), "--out", str(out), "--tol", "1e-4", "--h", "1e-5") == EXIT_OK
        report = json.loads(out.read_text())
        assert set(report) == {"config", "check", "h", "tol", "trials", "pass"}
        assert (report["check"], report["h"], report["tol"]) == ("gradient", 1e-5, 1e-4)
        assert [t["seed"] for t in report["trials"]] == [7 + t for t in range(cli.CHECK_TRIALS)]
        for trial in report["trials"]:
            assert set(trial) == {"seed", "max_abs_err", "max_rel_err", "worst_index", "pass"}

    def test_zero_tolerance_fails_a_linear_config(self, tmp_path):
        # degree-1 probes difference linear_energy, not its E_R, which is 0
        for form in ({"kind": "linear"}, {"kind": "polynomial", "p": 1}):
            cfg = write_config(tmp_path, form=form)
            out = tmp_path / "gc.json"
            assert run_cli("gradcheck", "--config", str(cfg), "--out", str(out), "--tol", "0") == EXIT_CHECK_FAILED
            assert all(t["max_abs_err"] > 0.0 for t in json.loads(out.read_text())["trials"])

    @pytest.mark.parametrize(
        "form", [{"kind": "linear"}, {"kind": "quadratic"}, {"kind": "polynomial", "p": 4}]
    )
    def test_probe_past_the_float_range_writes_one_error_line(self, tmp_path, capsys, form):
        # overflow inside the probes is reported by the error line alone;
        # a numpy warning escaping them fails here as an exception
        cfg = write_config(tmp_path, form=form)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("gradcheck", "--config", str(cfg), "--h", "1e300")
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: finite-difference probe is non-finite")
        assert err.count("\n") == 1 and err.endswith("\n")


class TestStationarityCommand:
    @pytest.mark.parametrize("form", FORM_CONFIGS)
    def test_default_tolerance_passes(self, tmp_path, form):
        cfg = write_config(tmp_path, form=form)
        out = tmp_path / "st.json"
        assert run_cli("stationarity", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["pass"]
        assert all(t["grad_norm_at_av"] <= 1e-8 * t["scale"] for t in report["trials"])

    def test_report_keys_and_echoed_flags(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "st.json"
        assert run_cli("stationarity", "--config", str(cfg), "--out", str(out), "--tol", "1e-9") == EXIT_OK
        report = json.loads(out.read_text())
        assert set(report) == {"config", "check", "tol", "trials", "pass"}
        assert (report["check"], report["tol"]) == ("stationarity", 1e-9)
        assert [t["seed"] for t in report["trials"]] == [7 + t for t in range(cli.CHECK_TRIALS)]
        for trial in report["trials"]:
            assert set(trial) == {"seed", "grad_norm_at_av", "scale", "pass"}

    def test_zero_tolerance_is_an_exact_check(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "st.json"
        assert run_cli("stationarity", "--config", str(cfg), "--out", str(out), "--tol", "0") == EXIT_OK
        assert all(t["grad_norm_at_av"] == 0.0 for t in json.loads(out.read_text())["trials"])


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("gradcheck", "--h", "inf"),
        ("gradcheck", "--h", "nan"),
        ("gradcheck", "--h", "1e300"),
        ("gradcheck", "--h", "-1"),
        ("gradcheck", "--tol", "inf"),
        ("gradcheck", "--tol", "nan"),
        ("gradcheck", "--tol", "-1"),
        ("stationarity", "--tol", "inf"),
        ("stationarity", "--tol", "nan"),
        ("stationarity", "--tol", "-1"),
    ],
)
def test_out_of_range_probe_flags_exit_2_without_a_report(tmp_path, capsys, command, flag, value):
    # 1e300 is finite but its probes overflow the quadratic energy
    cfg = write_config(tmp_path)
    out = tmp_path / "report.json"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli(command, "--config", str(cfg), "--out", str(out), flag, value)
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")
    assert not out.exists()


def test_exponential_overflow_in_a_probe_exits_2(tmp_path, capsys):
    # a probe past the float range is a usage error for e^u as for a power
    cfg = write_config(tmp_path, form={"kind": "exponential"})
    out = tmp_path / "gc.json"
    code = run_cli("gradcheck", "--config", str(cfg), "--out", str(out), "--h", "1e300")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: finite-difference probe is non-finite at entry")
    assert not out.exists()


def test_exponential_overflow_names_the_first_non_finite_entry(tmp_path, capsys):
    # the probes run entry-major, plus before minus; at this step the scores
    # of entries (0, 0)-(0, 2) stay below 430 and the minus probe of (0, 3)
    # reaches 772, past the float range of e^u
    cfg = write_config(tmp_path, n=48, d=16, d_k=8, d_v=8, form={"kind": "exponential"}, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("gradcheck", "--config", str(cfg), "--h", "3e4")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: finite-difference probe is non-finite at entry (0, 3)\n"


# sha256 of the gradcheck and stationarity reports at the verify-probes
# shape, recorded when every probe state was evaluated by its own call; the
# linear gradcheck's was recorded once it differenced linear_energy (E_R is 0)
PROBE_REPORT_GOLDEN = {
    ("linear", "gradcheck"): "43ed1bd8b91469b54faefbfcd7131727dc407ec9015186946737b807ec0c1a83",
    ("linear", "stationarity"): "53da9e03480321669234ce673155cda39ecb0b60fdf89625d92989f040b49c90",
    ("quadratic", "gradcheck"): "53f1ccc65e66fde861ff46e78772e1a824ba4da7e795e5c8dee8507d79bdd914",
    ("quadratic", "stationarity"): "442b94191c7e299b170484bae9d908d8862a235c2262017db0e5dc38574afed1",
    ("polynomial", "gradcheck"): "168dfe7e77ad1ecfc58d93969d0327e1e81659250fd4cb99f0f1c60cee8698dd",
    ("polynomial", "stationarity"): "dc8eeaeaf00f2d704960823fa88f777af59f6d6c7e63ba2f3a1ae752b4aa3f6b",
    ("exponential", "gradcheck"): "ace04fe3832f2efab0b4336feda5c6f694f1fe887151cf264852c53dbf3e2735",
    ("exponential", "stationarity"): "a766d48604f58938455a3cbce9e5945c1371dc94e4baa8cd5d51a8404cbb21d2",
}


@pytest.mark.parametrize(
    "form",
    [{"kind": "linear"}, {"kind": "quadratic"}, {"kind": "polynomial", "p": 4}, {"kind": "exponential"}],
)
@pytest.mark.parametrize("command", ["gradcheck", "stationarity"])
def test_probe_reports_are_byte_identical_to_golden(tmp_path, form, command):
    cfg = write_config(tmp_path, n=48, d=16, d_k=8, d_v=8, form=form)
    out = tmp_path / "report.json"
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == EXIT_OK
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == PROBE_REPORT_GOLDEN[form["kind"], command]


class TestTraceCommand:
    def test_converged_at_start_writes_single_row(self, tmp_path):
        cfg = write_config(tmp_path, perturb_sigma=0.0)
        out = tmp_path / "trace.csv"
        assert run_cli("trace", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "iter,energy,grad_norm"
        assert len(lines) == 2

    def test_fixed_iteration_run_writes_t_plus_one_rows(self, tmp_path):
        cfg = write_config(tmp_path, perturb_sigma=0.1, t_max=50, grad_tol=0.0)
        out = tmp_path / "trace.csv"
        assert run_cli("trace", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 52

    def test_energy_column_is_non_increasing(self, tmp_path):
        cfg = write_config(tmp_path, perturb_sigma=0.1, t_max=50, grad_tol=0.0)
        out = tmp_path / "trace.csv"
        run_cli("trace", "--config", str(cfg), "--out", str(out))
        energies = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        assert np.all(np.diff(energies) <= 1e-12)


class TestSweepCommand:
    def test_degree_sweep_runs_degree_one_as_the_linear_head(self, tmp_path):
        # p = 1 is F(u) = u: an unperturbed head at AV, stationary at once
        cfg = write_config(tmp_path, form={"kind": "polynomial", "p": 2}, perturb_sigma=0.1)
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--config", str(cfg), "--param", "p", "--values", "1,2,3", "--out", str(out)) == EXIT_OK
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) == 3
        degree_one = rows[0]
        assert degree_one["p"] == "1"
        assert degree_one["iters"] == "0" and degree_one["converged"] == "true"
        assert float(degree_one["final_grad_norm"]) == 0.0

    def test_eta_sweep_runs_every_grid_point(self, tmp_path):
        cfg = write_config(tmp_path, perturb_sigma=0.1)
        out = tmp_path / "sweep.csv"
        assert run_cli(
            "sweep", "--config", str(cfg), "--param", "eta",
            "--values", "0.001,0.01,0.1", "--out", str(out),
        ) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        for line in lines[1:]:
            wall = float(line.split(",")[-1])
            assert wall >= 0.0

    def test_seeds_are_derived_per_grid_point(self, tmp_path):
        cfg = write_config(tmp_path, perturb_sigma=0.1, seed=20)
        out = tmp_path / "sweep.csv"
        run_cli("sweep", "--config", str(cfg), "--param", "eta", "--values", "0.01,0.01", "--out", str(out))
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        seeds = [dict(zip(header, line.split(",")))["seed"] for line in lines[1:]]
        assert seeds == ["20", "21"]

    @pytest.mark.parametrize(
        "form, values",
        [({"kind": "quadratic"}, "0.1,1e308"), ({"kind": "exponential"}, "0.1,1e4")],
    )
    def test_diverged_grid_point_exits_3_after_writing_the_csv(self, tmp_path, capsys, form, values):
        cfg = write_config(tmp_path, form=form, perturb_sigma=0.1)
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--config", str(cfg), "--param", "perturb_sigma", "--values", values, "--out", str(out)
        )
        assert code == EXIT_DIVERGED
        assert capsys.readouterr().err == ""
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
        assert len(rows) == 2
        diverged = dict(zip(header, rows[1]))
        assert (diverged["converged"], diverged["iters"], diverged["final_grad_norm"]) == ("false", "0", "inf")

    def test_unknown_parameter_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        code = run_cli("sweep", "--config", str(cfg), "--param", "bogus", "--values", "1", "--out", str(tmp_path / "s.csv"))
        assert code == EXIT_USAGE

    def test_header_and_config_cells_are_pinned(self, tmp_path):
        cfg = write_config(tmp_path, perturb_sigma=0.1)
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--config", str(cfg), "--param", "eta", "--values", "0.1", "--out", str(out)) == EXIT_OK
        header, row = out.read_text().splitlines()
        assert header == (
            "n,d,d_k,d_v,form,p,eta,t_max,grad_tol,clip_norm,perturb_sigma,seed,"
            "converged,iters,final_grad_norm,wall_time_ms"
        )
        cells = row.split(",")
        assert len(cells) == 16
        assert cells[:12] == [
            "4", "8", "2", "2", "quadratic", "", "0.10000000000000001", "100", "1e-08", "",
            "0.10000000000000001", "7",
        ]
        assert cells[12] in ("true", "false")

    def test_heads_is_not_sweepable(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "s.csv"
        code = run_cli("sweep", "--config", str(cfg), "--param", "heads", "--values", "2", "--out", str(out))
        assert code == EXIT_USAGE
        allowed = ["clip_norm", "d", "d_k", "d_v", "eta", "grad_tol", "n", "p", "perturb_sigma", "seed", "t_max"]
        assert capsys.readouterr().err == (
            f"error: unknown sweep parameter 'heads'; expected one of {allowed}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "param, values",
        [("d_k", "4,2,0"), ("eta", "0.01,0"), ("p", "3,0"), ("p", "3,1030"), ("clip_norm", "0.5,inf")],
    )
    def test_invalid_late_value_exits_2_before_any_head(self, tmp_path, monkeypatch, capsys, param, values):
        cfg = write_config(tmp_path, form={"kind": "polynomial", "p": 2})
        out = tmp_path / "s.csv"
        calls = []
        monkeypatch.setattr(cli, "run_head", lambda *args: calls.append(args))
        code = run_cli("sweep", "--config", str(cfg), "--param", param, "--values", values, "--out", str(out))
        assert code == EXIT_USAGE
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    def test_degree_sweep_requires_polynomial_form(self, tmp_path):
        cfg = write_config(tmp_path)  # quadratic
        code = run_cli("sweep", "--config", str(cfg), "--param", "p", "--values", "1,2", "--out", str(tmp_path / "s.csv"))
        assert code == EXIT_USAGE


def test_module_entry_point_runs(tmp_path):
    cfg = write_config(tmp_path)
    # the child imports the same package as this process, installed or not
    src = str(Path(energy_attention.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "energy_attention", "gen", "--config", str(cfg), "--out", str(tmp_path / "data")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "data" / "X.json").exists()
