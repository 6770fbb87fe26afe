import json
import math
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from marlshield import cli
from marlshield.barriers import ShieldParams
from marlshield.checkpoint import CheckpointMismatchError, load_checkpoint, save_checkpoint
from marlshield.config import (
    ConfigError,
    RunConfig,
    default_run_config,
    load_run_config,
    resolved_json,
    run_config_from_dict,
)
from marlshield.dynamics import WorldConfig
from marlshield.maddpg import TrainerConfig

# every field of every section set to a value other than its default
NON_DEFAULT = {
    "world": {
        "wall_half_extent": 2.0,
        "obstacles": [{"position": [0.5, -0.5], "radius": 0.1}, {"position": [-1.0, 0.25], "radius": 0.0}],
        "checkin_points": [[1.5, 1.5], [-1.5, -1.5]],
        "dt": 0.05,
        "v_max": 0.8,
        "a_max": 1.5,
    },
    "shield": {
        "d_s": 0.1, "a_max_self": 1.5, "a_max_other": 1.25, "gamma_coo": 0.4, "gamma_non": 0.6,
        "r_sense": 3.0, "slack_weight": 1e5, "margin": 0.03,
    },
    "trainer": {
        "episodes": 7, "episode_len": 30, "batch_size": 16, "discount": 0.9, "soft_update_coef": 0.05,
        "lr_critic": 2e-3, "lr_actor": 3e-4, "noise_sigma": 0.2, "noise_decay": 0.999, "update_every": 3,
        "warmup_transitions": 50, "buffer_capacity": 500, "actor_hidden": [16], "critic_hidden": [32, 16],
        "seed": 11,
    },
    "runs": 2,
    "seeds": [4, 9],
    "out_dir": "elsewhere",
    "shield_enabled": False,
}

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


METRICS_HEADER = "episode,reward_I,reward_II,collisions_step,collisions_episode,min_dist,slack_events"


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
        for cfg in (default_run_config(), run_config_from_dict(NON_DEFAULT)):
            data = json.loads(resolved_json(cfg))
            again = run_config_from_dict(data)
            assert resolved_json(again) == resolved_json(cfg)
        assert json.loads(resolved_json(cfg)) == NON_DEFAULT
        default = json.loads(resolved_json(default_run_config()))
        assert NON_DEFAULT.keys() == default.keys()
        for key in ("world", "shield", "trainer"):
            assert NON_DEFAULT[key].keys() == default[key].keys()
            assert all(v != default[key][k] for k, v in NON_DEFAULT[key].items()), key
        assert all(v != default[k] for k, v in NON_DEFAULT.items())

    def test_readme_example_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("Example configuration", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        data = json.loads(block)
        assert resolved_json(run_config_from_dict(data)) == resolved_json(default_run_config())
        sections = {"world": WorldConfig, "shield": ShieldParams, "trainer": TrainerConfig}
        assert data.keys() == {f.name for f in fields(RunConfig)}
        for name, cls in sections.items():
            assert data[name].keys() == {f.name for f in fields(cls)}, name


class TestTrainCommand:
    def test_episodes_zero_vacuous_success(self, tmp_path):
        cfg = tiny_config_file(tmp_path)
        rc = cli.main(["train", "--config", str(cfg), "--episodes", "0"])
        assert rc == 0
        metrics = list((tmp_path / "out").glob("*/run*/metrics.csv"))
        assert len(metrics) == 1
        lines = metrics[0].read_text().splitlines()
        assert lines[0] == "# marlshield metrics v1"
        assert lines[2] == METRICS_HEADER
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
            ({"world": 5}, []),
            ({"trainer": dict(TINY_TRAINER, actor_hidden=5)}, []),
            ({"trainer": dict(TINY_TRAINER, actor_hidden=["a"])}, []),
            ({"trainer": dict(TINY_TRAINER, critic_hidden=[8, 0])}, []),
            ({"shield": {"d_s": "x"}}, []),
            ({"trainer": dict(TINY_TRAINER, lr_actor="x")}, []),
            ({"trainer": dict(TINY_TRAINER, episodes=1.5)}, []),
            ({"trainer": dict(TINY_TRAINER, buffer_capacity=100.0)}, []),
            ({"trainer": dict(TINY_TRAINER, seed=2.5)}, []),
            ({"trainer": dict(TINY_TRAINER, episode_len=True)}, []),
            ({"seeds": [1.7]}, []),
            ({"world": {"obstacles": [{"position": ["0.5", "-0.5"]}]}}, []),
            ({"world": {"obstacles": [{"position": [False, -0.5]}]}}, []),
            ({"world": {"obstacles": [{"position": [0.5, -0.5], "radius": True}],
                        "checkin_points": [[0.7, 0.7]]}}, []),
            ({"world": {"obstacles": [{"position": [0.5, -0.5], "radius": "0.1"}]}}, []),
            ({"world": {"obstacles": [{"position": [0.5, 0.5], "radius": 0.1, "radus": 3}]}}, []),
            ({"world": {"checkin_points": [["0.7", 0.7]]}}, []),
            ({"shield": {"slack_weight": math.inf}}, []),
            ({"shield": {"margin": math.nan}}, []),
            ({"shield": {"a_max_self": 0.0}}, []),
            ({"trainer": dict(TINY_TRAINER, noise_sigma=math.nan)}, []),
            ({"trainer": dict(TINY_TRAINER, lr_actor=math.inf)}, []),
            ({"trainer": dict(TINY_TRAINER, lr_critic=0.0)}, []),
            ({"trainer": dict(TINY_TRAINER, noise_sigma=-0.5)}, []),
            ({"trainer": dict(TINY_TRAINER, noise_decay=-0.1)}, []),
            ({"trainer": dict(TINY_TRAINER, warmup_transitions=-5)}, []),
            ({"world": {"v_max": math.inf}}, []),
            ({"world": {"dt": math.inf}}, []),
            ({"world": {"wall_half_extent": math.inf}}, []),
            ({"world": {"a_max": math.nan}}, []),
        ],
        ids=[
            "cli_seed", "json_trainer_seed", "json_seed_list", "cli_episodes",
            "json_shield_enabled_string", "json_runs_float", "json_runs_bool",
            "json_batch_size_zero", "json_batch_size_negative_no_update", "json_buffer_capacity_zero",
            "json_world_not_object", "json_actor_hidden_int", "json_actor_hidden_string",
            "json_critic_hidden_zero", "json_d_s_string", "json_lr_actor_string", "json_episodes_float",
            "json_buffer_capacity_float", "json_trainer_seed_float", "json_episode_len_bool",
            "json_seed_list_float", "json_obstacle_position_string", "json_obstacle_position_bool",
            "json_obstacle_radius_bool", "json_obstacle_radius_string", "json_obstacle_unknown_key",
            "json_checkin_point_string", "json_slack_weight_infinity", "json_margin_nan",
            "json_a_max_self_zero", "json_noise_sigma_nan", "json_lr_actor_infinity", "json_lr_critic_zero",
            "json_noise_sigma_negative", "json_noise_decay_negative", "json_warmup_negative",
            "json_v_max_infinity", "json_dt_infinity", "json_wall_half_extent_infinity", "json_a_max_nan",
        ],
    )
    def test_bad_override_is_config_error(self, tmp_path, capsys, extra_config, argv):
        cfg = tiny_config_file(tmp_path, **extra_config)
        assert cli.main(["train", "--config", str(cfg), *argv]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "out").exists()

    def test_metrics_rows_round_trip(self, tmp_path):
        rows = [
            {"episode": 0, "reward_I": 1234.5, "reward_II": -0.25, "collisions_step": 3,
             "collisions_episode": 1, "min_dist": math.inf, "slack_events": 2},
            {"episode": 1, "reward_I": 80000.0, "reward_II": 0.0, "collisions_step": 0,
             "collisions_episode": 0, "min_dist": 0.0625, "slack_events": 0},
        ]
        path = tmp_path / "metrics.csv"
        values = [[r[c] for c, *_ in cli.METRICS_FORMAT] for r in rows]
        cli._write_csv(path, cli.METRICS_SCHEMA, cli.METRICS_FORMAT, values, "{}", 5)
        lines = path.read_text().splitlines()
        assert lines[:3] == ["# marlshield metrics v1", "# seed=5 config={}", METRICS_HEADER]
        assert lines[3] == "0,1234.5,-0.25,3,1,inf,2"
        read = cli._read_metrics_csv(path)
        assert read == rows
        assert [list(map(type, r.values())) for r in read] == [list(map(type, r.values())) for r in rows]

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
        assert lines[0] == "# marlshield trajectory v1"
        assert lines[2] == (
            "step,agent_id,px,py,vx,vy,ax_nominal,ay_nominal,ax_safe,ay_safe,reward,min_dist,shield_status"
        )
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

    @pytest.mark.parametrize("content", [None, b"\xff"], ids=["missing", "config_not_utf8"])
    def test_unreadable_checkpoint_is_artifact_error(self, trained, tmp_path, capsys, content):
        path = tmp_path / "ckpt.bin"
        if content is not None:
            data = trained[2].read_bytes()
            path.write_bytes(data[:20] + content + data[21:])  # first byte of the config blob
        out = tmp_path / "eval_bad"
        assert cli.main(["eval", "--checkpoint", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("artifact error:") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "head_scale, dims, tail",
        [
            (math.nan, None, 0), (0.0, None, 0), (-1.0, None, 0), (None, (), 0), (None, (14,), 0),
            (None, (14, 0, 2), 0), (None, None, 8), (None, None, -8),
        ],
        ids=["head_scale_nan", "head_scale_zero", "head_scale_negative", "no_dims", "one_dim",
             "zero_width_layer", "trailing_bytes", "truncated"],
    )
    def test_malformed_checkpoint_is_artifact_error(self, trained, tmp_path, capsys, head_scale, dims, tail):
        # rewrite the first net header (layout in the checkpoint module's docstring)
        data = trained[2].read_bytes()
        at = 20 + struct.unpack_from("<I", data, 16)[0]
        old_scale, n = struct.unpack_from("<dI", data, at + 4)
        old_dims = struct.unpack_from(f"<{n}I", data, at + 16)
        dims = old_dims if dims is None else dims
        header = struct.pack(f"<dI{len(dims)}I", old_scale if head_scale is None else head_scale, len(dims), *dims)
        data = data[: at + 4] + header + data[at + 16 + 4 * n :]
        data = data + b"\x00" * tail if tail >= 0 else data[:tail]
        path = tmp_path / "ckpt.bin"
        path.write_bytes(data)
        out = tmp_path / "eval_bad"
        assert cli.main(["eval", "--checkpoint", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("artifact error:") and "Traceback" not in err
        assert not out.exists()

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
            ("*/summary.json", lambda text: text.replace('"run": 0', '"run": "0"')),
        ],
        ids=["truncated_metrics_row", "malformed_summary_json", "summary_missing_key", "summary_run_string"],
    )
    def test_corrupt_artifact_refused(self, trained, tmp_path, capsys, pattern, tamper):
        _, cfg, _ = trained
        out = tmp_path / "tampered"
        cli.main(["train", "--config", str(cfg), "--out", str(out)])
        target = next(out.glob(pattern))
        tampered = tamper(target.read_text())
        assert tampered != target.read_text()
        target.write_text(tampered)
        capsys.readouterr()
        assert cli.main(["report", "--dir", str(out)]) == 3
        assert capsys.readouterr().err.startswith("artifact error:")

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

    def test_bytes_follow_documented_layout(self, tmp_path):
        from marlshield.checkpoint import MAGIC
        from marlshield.maddpg import MaddpgTrainer
        from marlshield.patrol import PatrolEnv, default_world

        env = PatrolEnv(default_world(), ShieldParams(), episode_len=5)
        trainer = MaddpgTrainer(env, TrainerConfig(actor_hidden=(5, 3), critic_hidden=(4,), seed=2))
        trainer.actors[1].head_scale = 0.5
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, trainer, '{"x": "\u00e9"}')
        # packed by hand from the layout in the checkpoint module's docstring
        blob = '{"x": "\u00e9"}'.encode("utf-8")
        expected = b"MSHLDNN\x00" + struct.pack("<III", 1, 2, len(blob)) + blob
        for i in range(2):
            for net in (trainer.actors[i], trainer.critics[i]):
                expected += struct.pack("<I", {"linear": 0, "tanh": 1}[net.head])
                expected += struct.pack("<d", net.head_scale)
                expected += struct.pack("<I", len(net.dims))
                expected += b"".join(struct.pack("<I", d) for d in net.dims)
        for i in range(2):
            for net in (trainer.actors[i], trainer.critics[i], trainer.target_actors[i], trainer.target_critics[i]):
                for p in net.parameters():
                    expected += b"".join(struct.pack("<d", v) for v in p.ravel().tolist())
        assert MAGIC == b"MSHLDNN\x00"
        assert path.read_bytes() == expected

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        from marlshield.checkpoint import CheckpointError

        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)
