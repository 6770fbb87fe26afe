import json
import math
from pathlib import Path

import numpy as np
import pytest

from marlshield import cli
from marlshield.checkpoint import CheckpointMismatchError, load_checkpoint, save_checkpoint
from marlshield.config import (
    ConfigError,
    default_run_config,
    load_run_config,
    resolved_json,
    run_config_from_dict,
)

TINY_TRAINER = {
    "episodes": 3,
    "episode_len": 12,
    "batch_size": 8,
    "warmup_transitions": 8,
    "update_every": 2,
    "buffer_capacity": 200,
    "actor_hidden": [8, 8],
    "critic_hidden": [8, 8],
    "seed": 7,
}


def tiny_config_file(tmp_path, **extra):
    data = {"trainer": dict(TINY_TRAINER), "runs": 1, "out_dir": str(tmp_path / "out")}
    data.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


class TestConfig:
    def test_defaults_load(self):
        cfg = default_run_config()
        assert cfg.runs == 5
        assert len(cfg.seeds) == 5
        assert cfg.shield.d_s == 0.075
        assert cfg.world.dt == 0.1

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            run_config_from_dict({"trainer": {"lr": 1.0}})
        with pytest.raises(ConfigError, match="unknown key"):
            run_config_from_dict({"wrld": {}})

    def test_json_error_has_location(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"runs": 5,\n  "oops"\n}')
        with pytest.raises(ConfigError, match=r"bad\.json:\d+:\d+"):
            load_run_config(bad)

    def test_seed_list_length_must_match_runs(self):
        with pytest.raises(ConfigError, match="seed list length"):
            run_config_from_dict({"runs": 3, "seeds": [1, 2]})

    def test_accel_caps_must_agree(self):
        with pytest.raises(ConfigError, match="a_max"):
            run_config_from_dict({"world": {"a_max": 1.0}, "shield": {"a_max_self": 2.0}})

    def test_checkin_clear_of_obstacle_halo(self):
        with pytest.raises(ConfigError, match="safe radius"):
            run_config_from_dict(
                {
                    "world": {
                        "obstacles": [{"position": [0.0, 0.0]}],
                        "checkin_points": [[0.05, 0.0]],
                    }
                }
            )

    def test_resolved_json_round_trips(self):
        cfg = default_run_config()
        data = json.loads(resolved_json(cfg))
        again = run_config_from_dict(data)
        assert resolved_json(again) == resolved_json(cfg)


class TestTrainCommand:
    def test_episodes_zero_vacuous_success(self, tmp_path):
        cfg = tiny_config_file(tmp_path)
        rc = cli.main(["train", "--config", str(cfg), "--episodes", "0"])
        assert rc == 0
        metrics = list((tmp_path / "out").glob("*/run*/metrics.csv"))
        assert len(metrics) == 1
        lines = metrics[0].read_text().splitlines()
        assert lines[0] == cli.METRICS_SCHEMA
        assert lines[2] == cli.METRICS_COLUMNS
        assert len(lines) == 3  # headers only

    def test_artifacts_and_summary_conserve_counts(self, tmp_path):
        cfg = tiny_config_file(tmp_path)
        rc = cli.main(["train", "--config", str(cfg)])
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "shielded" / "summary.json").read_text())
        rows = cli._read_metrics_csv(next((tmp_path / "out").glob("*/run*/metrics.csv")))
        assert summary["episodes_total"] == len(rows) == 3
        assert summary["collision_steps_total"] == sum(r["collisions_step"] for r in rows)
        assert summary["collision_episodes_total"] == sum(r["collisions_episode"] for r in rows)
        assert (tmp_path / "out" / "shielded" / "run00_seed7" / "checkpoint.bin").exists()

    def test_no_shield_variant_directory(self, tmp_path):
        cfg = tiny_config_file(tmp_path)
        rc = cli.main(["train", "--config", str(cfg), "--no-shield"])
        assert rc == 0
        assert (tmp_path / "out" / "unshielded" / "summary.json").exists()

    def test_config_error_exit_code(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert cli.main(["train", "--config", str(missing)]) == 1

    @pytest.mark.parametrize(
        "extra_config, argv",
        [
            ({}, ["--seed", "-5"]),
            ({"trainer": dict(TINY_TRAINER, seed=-3)}, []),
            ({"runs": 2, "seeds": [4, -1]}, []),
            ({}, ["--episodes", "-1"]),
            ({"shield_enabled": "false"}, []),
            ({"runs": 1.7}, []),
            ({"runs": True}, []),
            ({"trainer": dict(TINY_TRAINER, batch_size=0)}, []),
            ({"trainer": dict(TINY_TRAINER, batch_size=-3, warmup_transitions=1000)}, []),
            ({"trainer": dict(TINY_TRAINER, batch_size=0, buffer_capacity=0)}, []),
        ],
        ids=[
            "cli_seed", "json_trainer_seed", "json_seed_list", "cli_episodes",
            "json_shield_enabled_string", "json_runs_float", "json_runs_bool",
            "json_batch_size_zero", "json_batch_size_negative_no_update", "json_buffer_capacity_zero",
        ],
    )
    def test_bad_override_is_config_error(self, tmp_path, capsys, extra_config, argv):
        cfg = tiny_config_file(tmp_path, **extra_config)
        assert cli.main(["train", "--config", str(cfg), *argv]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "out").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_config_file(tmp_path)
        cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "a")])
        cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "shielded" / "run00_seed7" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "shielded" / "run00_seed7" / "metrics.csv").read_bytes()
        assert a == b
        ca = (tmp_path / "a" / "shielded" / "run00_seed7" / "checkpoint.bin").read_bytes()
        cb = (tmp_path / "b" / "shielded" / "run00_seed7" / "checkpoint.bin").read_bytes()
        assert ca == cb

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        cfg = tiny_config_file(tmp_path)
        env_out = tmp_path / "from_env"
        monkeypatch.setenv("CBF_SHIELD_OUT", str(env_out))
        cli.main(["train", "--config", str(cfg), "--episodes", "0"])
        assert (env_out / "shielded" / "summary.json").exists()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("trained")
    cfg = tiny_config_file(tmp_path)
    assert cli.main(["train", "--config", str(cfg)]) == 0
    ckpt = tmp_path / "out" / "shielded" / "run00_seed7" / "checkpoint.bin"
    return tmp_path, cfg, ckpt


class TestEvalCommand:
    def test_eval_writes_trajectories_and_plots(self, trained, tmp_path):
        _, cfg, ckpt = trained
        out = tmp_path / "eval"
        rc = cli.main(
            ["eval", "--checkpoint", str(ckpt), "--episodes", "2", "--seed", "5", "--out", str(out)]
        )
        assert rc == 0
        lines = (out / "trajectory_ep000.csv").read_text().splitlines()
        assert lines[0] == cli.TRAJECTORY_SCHEMA
        assert lines[2] == cli.TRAJECTORY_COLUMNS
        assert len(lines) > 3
        assert (out / "trajectory_ep001.csv").exists()
        assert (out / "trajectory_ep000.svg").exists()
        assert (out / "trajectory_ep000_zoom0.svg").exists()
        assert (out / "trajectory_ep000_zoom1.svg").exists()
        assert (out / "eval_rewards.svg").exists()
        summary = json.loads((out / "eval_summary.json").read_text())
        assert len(summary["episodes"]) == 2

    def test_zero_episodes_headers_only(self, trained, tmp_path):
        _, cfg, ckpt = trained
        out = tmp_path / "eval0"
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--episodes", "0", "--out", str(out)])
        assert rc == 0
        lines = (out / "trajectory_ep000.csv").read_text().splitlines()
        assert len(lines) == 3

    @pytest.mark.parametrize("argv", [["--episodes", "-1"], ["--seed", "-1"]], ids=["episodes", "seed"])
    def test_negative_argument_is_config_error(self, trained, tmp_path, capsys, argv):
        _, cfg, ckpt = trained
        out = tmp_path / "eval_bad"
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--out", str(out), *argv]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_eval_deterministic_bytes(self, trained, tmp_path):
        _, cfg, ckpt = trained
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        for out in (out1, out2):
            cli.main(["eval", "--checkpoint", str(ckpt), "--episodes", "1", "--seed", "3", "--out", str(out)])
        for name in ("trajectory_ep000.csv", "trajectory_ep000.svg", "eval_rewards.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_checkpoint_dim_mismatch_is_exit_3(self, trained, tmp_path):
        base, cfg, ckpt = trained
        other = dict(TINY_TRAINER)
        other["actor_hidden"] = [6, 6]
        bad_cfg = tmp_path / "bad.json"
        bad_cfg.write_text(json.dumps({"trainer": other, "runs": 1, "out_dir": str(tmp_path / "x")}))
        rc = cli.main(
            ["eval", "--checkpoint", str(ckpt), "--config", str(bad_cfg), "--out", str(tmp_path / "x")]
        )
        assert rc == 3

    def test_mismatch_error_names_dims(self, trained):
        _, _, ckpt = trained
        config_json, agents = load_checkpoint(ckpt)
        from dataclasses import replace
        from marlshield.config import run_config_from_dict
        from marlshield.maddpg import MaddpgTrainer
        from marlshield.patrol import PatrolEnv

        cfg = run_config_from_dict(json.loads(config_json))
        env = PatrolEnv(cfg.world, cfg.shield, episode_len=5)
        trainer = MaddpgTrainer(env, replace(cfg.trainer, actor_hidden=(6, 6)))
        from marlshield.checkpoint import attach_networks

        with pytest.raises(CheckpointMismatchError, match=r"expected .*6.* found .*8"):
            attach_networks(trainer, agents)


class TestReportCommand:
    def test_report_two_variants(self, trained, tmp_path):
        base, cfg, ckpt = trained
        out = base / "out"
        assert cli.main(["train", "--config", str(cfg), "--no-shield", "--out", str(out)]) == 0
        rc = cli.main(["report", "--dir", str(out)])
        assert rc == 0
        report = (out / "report.md").read_text()
        assert "| Number of collisions |" in report
        assert "shielded" in report and "unshielded" in report
        assert "%" in report.splitlines()[-1]
        ratio_line = [l for l in report.splitlines() if "Collision ratio" in l][0]
        assert ratio_line.count(".") >= 2  # three-decimal percent per column
        assert (out / "rewards.svg").exists()

    def test_missing_artifacts_enumerated(self, trained, tmp_path):
        base, cfg, ckpt = trained
        out = tmp_path / "broken"
        cli.main(["train", "--config", str(cfg), "--out", str(out)])
        target = next(out.glob("*/run*/metrics.csv"))
        target.unlink()
        rc = cli.main(["report", "--dir", str(out)])
        assert rc == 3

    def test_schema_version_refused(self, trained, tmp_path):
        base, cfg, ckpt = trained
        out = tmp_path / "tampered"
        cli.main(["train", "--config", str(cfg), "--out", str(out)])
        target = next(out.glob("*/run*/metrics.csv"))
        body = target.read_text().splitlines()
        body[0] = "# marlshield metrics v999"
        target.write_text("\n".join(body) + "\n")
        assert cli.main(["report", "--dir", str(out)]) == 3

    @pytest.mark.parametrize(
        "pattern, tamper",
        [
            ("*/run*/metrics.csv", lambda text: text.rstrip("\n").rsplit(",", 3)[0] + "\n"),
            ("*/summary.json", lambda text: text[: len(text) // 2]),
            ("*/summary.json", lambda text: text.replace('"collision_ratio"', '"ratio"')),
        ],
        ids=["truncated_metrics_row", "malformed_summary_json", "summary_missing_key"],
    )
    def test_corrupt_artifact_refused(self, trained, tmp_path, pattern, tamper):
        _, cfg, _ = trained
        out = tmp_path / "tampered"
        cli.main(["train", "--config", str(cfg), "--out", str(out)])
        target = next(out.glob(pattern))
        target.write_text(tamper(target.read_text()))
        assert cli.main(["report", "--dir", str(out)]) == 3

    def test_empty_directory_is_artifact_error(self, tmp_path):
        assert cli.main(["report", "--dir", str(tmp_path / "void")]) == 3


class TestCheckpointFormat:
    def test_round_trip(self, tmp_path):
        trainer_cfg = dict(TINY_TRAINER)
        from marlshield.maddpg import MaddpgTrainer, TrainerConfig
        from marlshield.patrol import PatrolEnv, default_world
        from marlshield.barriers import ShieldParams

        env = PatrolEnv(default_world(), ShieldParams(), episode_len=5)
        trainer = MaddpgTrainer(env, TrainerConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in trainer_cfg.items()}))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, trainer, '{"hello": 1}')
        config_json, agents = load_checkpoint(path)
        assert json.loads(config_json) == {"hello": 1}
        assert len(agents) == 2
        for i, nets in enumerate(agents):
            for role, net in (("actor", trainer.actors[i]), ("critic", trainer.critics[i])):
                loaded = nets[role]
                assert loaded.dims == net.dims
                for a, b in zip(loaded.parameters(), net.parameters()):
                    assert np.array_equal(a, b)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        from marlshield.checkpoint import CheckpointError

        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)
