"""Frozen bytes of the run directory.

Every byte-compared file a run writes (`config.json`, `metrics.csv`,
`events.jsonl` and each `checkpoints/*` file) is pinned by its sha256
digest. The cases are every built-in preset at master seed 0, cut short
with `stop_after_round`, plus small configs that switch on checkpoints,
evaluation noise, payload corruption (`forget_prob`), hyperparameter
clamping and variance exploitation. Checkpointed cases are also crashed
halfway and resumed; the resumed directory must carry the same digests.

A refactor that keeps behaviour leaves every digest as it is. A change
that alters any of them changes the engine's trajectories or file
formats, and is not a refactor.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from popsched.cli import main
from popsched.config import ExperimentConfig
from popsched.core import HyperparamSpace, SpaceEntry
from popsched.presets import PRESETS, get_preset
from popsched.runner import run_experiment

from test_logs import assert_readers_match_per_line, per_cell, read_metric_columns

# Two of every preset's largest evolution and backtracking periods.
PRESET_ROUNDS = 104

SIGMA = HyperparamSpace((SpaceEntry("sigma", 0.05, 5.0),))


def _two_basin(**params) -> dict:
    return {"kind": "two_basin", "params": {"start_x": -2.0, **params}}


SMALL = {
    "pbt-checkpoints": ExperimentConfig(
        algorithm="pbt", num_agents=8, t_ready=5, total_steps=60,
        search_space=SIGMA, trainable=_two_basin(), checkpoint_every=3,
    ),
    "mfpbt-noise-clamp": ExperimentConfig(
        algorithm="mfpbt", num_agents=16, num_subpops=2, deltas=(1, 3),
        t_ready=5, total_steps=100, eval_repeats=3, search_space=SIGMA,
        trainable=_two_basin(eval_noise=0.2), clamp_hyperparams=True,
        checkpoint_every=4,
    ),
    "pbt-bt-forget": ExperimentConfig(
        algorithm="pbt_bt", num_agents=8, t_ready=5, total_steps=60,
        search_space=SIGMA, trainable=_two_basin(forget_prob=0.1),
        elite_capacity=3, backtrack_period=3, checkpoint_every=2,
    ),
    "quadratic-pbt-clamp": ExperimentConfig(
        algorithm="pbt", num_agents=8, t_ready=4, total_steps=60,
        search_space=HyperparamSpace((SpaceEntry("lr", 1e-3, 1.0),)),
        trainable={"kind": "quadratic_lr", "params": {"curvature": [1.0, 10.0]}},
        clamp_hyperparams=True, checkpoint_every=5,
    ),
    "lottery-pbt-variance": ExperimentConfig(
        algorithm="pbt", num_agents=8, t_ready=4, total_steps=48,
        search_space=HyperparamSpace((SpaceEntry("rate", 0.1, 10.0),)),
        trainable={"kind": "seed_lottery", "params": {}},
        variance_exploitation=True, checkpoint_every=4,
    ),
    "mfpbt-variance-sym": ExperimentConfig(
        algorithm="mfpbt", num_agents=12, num_subpops=3, deltas=(1, 2, 4),
        t_ready=5, total_steps=60, search_space=SIGMA, trainable=_two_basin(),
        variance_exploitation=True, symmetric_migration=True,
    ),
}


def case_config(name: str) -> tuple[ExperimentConfig, int | None]:
    """(config, stop_after_round) of one golden case."""
    if name in SMALL:
        return SMALL[name], None
    cfg = get_preset(name)
    return cfg, min(PRESET_ROUNDS, cfg.num_rounds)


def run_digests(run_dir: Path) -> dict[str, str]:
    """sha256 of every byte-compared file, keyed by path inside the run."""
    files = [run_dir / n for n in ("config.json", "metrics.csv", "events.jsonl")]
    files += sorted((run_dir / "checkpoints").glob("*"))
    return {
        p.relative_to(run_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in files
    }


def golden_run(name: str, out: Path) -> dict[str, str]:
    cfg, stop = case_config(name)
    run_experiment(cfg, seed=0, out_dir=out, stop_after_round=stop)
    return run_digests(out)


# Recorded from the engine as it was before trainables stayed live between
# rounds. A refactor must leave them as they are.
GOLDEN: dict[str, dict[str, str]] = {
    "mfpbt-default": {
        "config.json":
            "1802453002180c71830d6ebb156e5dd9d2cf67e49858538fb05913a587658fcc",
        "metrics.csv":
            "a71d7fef5dd21e6ac32ccfa6119969efe5b27a2a945987b64126b26a596e8aec",
        "events.jsonl":
            "006625387a054f8ff5add3352b79880f3de646662acb2378732e246a319549dc",
    },
    "mfpbt-geometric": {
        "config.json":
            "f12a465aad2e429a4315261c1c907054b3023324b4b3700b32a4670a1ac4e4d1",
        "metrics.csv":
            "ced42fd94a25a5805510cbde2679eef7ce2127d1237b9f758f64d25816065a21",
        "events.jsonl":
            "a4099ad52830d9b4c5698b66c964ba9ef417ea9f2a1665f99fadae872a7dd7d5",
    },
    "mfpbt-n16": {
        "config.json":
            "9c2648a4f95d9c6947ee7dea5ad15a6193b8a8514178bfb080fabb7b32b3cea6",
        "metrics.csv":
            "eaa5c549fa60d4597f3b781f6115b3f497aaa707f3e69a247c869f9ad1c387ea",
        "events.jsonl":
            "f1401e0d734d6ac275194a514b4234d4e412c47df4d5710f357e8169e9f9bec0",
    },
    "mfpbt-n64": {
        "config.json":
            "9f7817a331c3ec946ea6dafe590690715e612f02cee692f8ec6e7c43a1d941ce",
        "metrics.csv":
            "7d995970d868e6ae6a23b6daa43a2c61ed34fe69547cae39bf046bc730278503",
        "events.jsonl":
            "6fa591a7804490b35f89e02b239120c74cbdb550b4be774b33e3bade19acadd9",
    },
    "mfpbt-symmetric": {
        "config.json":
            "dc3d25f74f089fda2006e6303453cd9c510ca1e3649345e8a947bab8a6b76c9e",
        "metrics.csv":
            "1b6a76e5b6d656e23a1cafb602292104644d7427f0c0d6ff380e7820ab69a60a",
        "events.jsonl":
            "2c6792609761dadabf100ab15b045a03d554b7cdb5da2b1510def03627613ad4",
    },
    "pbt-bt-default": {
        "config.json":
            "1c1ded719eca98ff9ecd629e774b66e822218a2d99db9d81c5c2190026d15ae3",
        "metrics.csv":
            "974c9fd9af79c639619a7625a5233e07a0b216885731ae6180ad8315fdaaea0f",
        "events.jsonl":
            "eb4b862e88725822649c2a76bb6f36b7230fa96dd81a41ba8f419bd1939a056b",
    },
    "pbt-delta1": {
        "config.json":
            "806d3f3e4b934d7360a84a4b87a2d509aa31db186c80ded421cbf6d022f79adb",
        "metrics.csv":
            "da55c39c551bc22f597261f448437401f1906b5890d6b8ee5383a04250cce10a",
        "events.jsonl":
            "612f0895f988ba9a0273df580336b32515bb3a93fde4a48093d7ffbe9598a109",
    },
    "pbt-delta10": {
        "config.json":
            "1c2e0176130a74f7c8be9b29db7eaee8003a76ee8d12ec8348da3b0bc19e9fa7",
        "metrics.csv":
            "1724f31f6ad319d64d9a0013b0c0d849ee9711d59e0a498ca4436610c47fb701",
        "events.jsonl":
            "55740642eeba652af23a4ebf8f22805415e9faf6a68003d03150b68c7d0ec5c3",
    },
    "pbt-delta25": {
        "config.json":
            "157be70287ffc86ee5265704930a81bb3bf7c7982d155e52d7f41a729e969e9a",
        "metrics.csv":
            "e8625bca63b68ce87029a7c1053e082aa1f6b50160f6158719ac6ff6fe18629c",
        "events.jsonl":
            "fc3560e67a180daa315a4a89ce95d76487076907f2063c43a5a3da131f98fda6",
    },
    "pbt-delta50": {
        "config.json":
            "2337636ecd58c24074779de9a51f99a1df0c0103cada12101708dabfc5e2afe3",
        "metrics.csv":
            "2b60ab9e07e184203346d838dc957458e4e775417b5e23a2b567ab646195aa46",
        "events.jsonl":
            "4348712d749682c1b005b7cb4b379c512b015906d1d7be95f6075752042880bf",
    },
    "quadratic-mfpbt": {
        "config.json":
            "4335ec472e153a75a078c8a3c3b1e0d7a280e7895d8e4a502a7cbaa03de97547",
        "metrics.csv":
            "94bc8596722e95c5c04b5dc811a4726c1cce72516d97af5ef938e44f7a94dd0c",
        "events.jsonl":
            "54e9f77b3090c689c0c7b245a19b981884708fac24ac68e83bfe3df3161df4d0",
    },
    "rs-default": {
        "config.json":
            "eab327f81d8f786225c149224dcff57e389ebb4d0d6b8b36a5c815d38bd1977c",
        "metrics.csv":
            "3d30503032fd7070c1321743b8e07d7efbfc5dc86e7b5cdc99c8f059a13bef25",
        "events.jsonl":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "seedlottery-mfpbt-var": {
        "config.json":
            "f9aa2b2c1580a48ae4ad69884ff452b1d4fbd0f85e6678b7caa6111601969d75",
        "metrics.csv":
            "d10fb2e26b0efdd57948589b682d0bdf487cf01708897c61b9947ca17c81a3d9",
        "events.jsonl":
            "1c34c7a92b53615452ce5bc2449dc144a86a74a50f07dc733628f0d4c14d65be",
    },
    "seedlottery-rs": {
        "config.json":
            "8518dced3555d9a04ba9592392dd09eb4f37d0a8b8dcc217fbf89444a03f0f9b",
        "metrics.csv":
            "f634af31e716b242bd2d52f266651e03c832c819bf5e6aba30ee7bd2541c30e8",
        "events.jsonl":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "twobasin-mfpbt": {
        "config.json":
            "f9681bee1d3c5a378f0512143aa39a228b76b8d2f8657381443264e778dcc179",
        "metrics.csv":
            "bd9e1df316129c74424cabbbbd8c362d834c874beace148d164bd9e8b9dd61a4",
        "events.jsonl":
            "690c9f2723b1f8765376e30447cf663dd5bacbddd6b9a722a3d8f80fa3eccf37",
    },
    "twobasin-mfpbt-sym": {
        "config.json":
            "f5cf1645bde57110725b993375973f6c5063006b03a125c4a0516867b64030c7",
        "metrics.csv":
            "9654b41b390ee50b7b4254bc9baa10fd65647b0aae7c883d495b603900381bab",
        "events.jsonl":
            "09fb2f5953bfd68a0860b1439652ab76a6011a81582f422bc433956b0e490e3a",
    },
    "twobasin-pbt-delta1": {
        "config.json":
            "d81fca94c11202ad8276383b6d5fc44dea7293c68e7301d8953118289be4d0e4",
        "metrics.csv":
            "d3b72699df8626508174018f97451d815247fcb87028c6e68c5b212dd8f99feb",
        "events.jsonl":
            "f388511535c9595244bad8590fc93052e0d8a37ec1fe402323901ce402733194",
    },
    "twobasin-pbt-delta16": {
        "config.json":
            "7085cace2dfe14aa84a7330311fe379713ebff759e2af8eba1ae60910b08e77d",
        "metrics.csv":
            "17cf89218f64dc3ca42863e9429cc5ba1ce033589e8c59a36f86f2a4373448c6",
        "events.jsonl":
            "f161ce7f2e228a3647d130ab517f21ee2fc4f2d5e226add3adc9ef8c060bb6b4",
    },
    "twobasin-pbt-delta4": {
        "config.json":
            "b4ffce5e681fd66c107e3d2198385bdd8b14d585f5c977d9c4df6b46bbef8f00",
        "metrics.csv":
            "aa95b9d6efda359bcaadaffa5675aa079f544dde4e25e474a1a7f0164db662dd",
        "events.jsonl":
            "d738e3839769b650035d74f9021502d7337483515a23d51f9ab4a1c88c0663e3",
    },
    "twobasin-pbt-delta8": {
        "config.json":
            "ce19b24c068a13bd92dd7ec5a33dae6fb1034f9fc8086ee5d5595e76e46907ca",
        "metrics.csv":
            "7ec9f4ca90393833f1ff8909956e0d246f8c1bd0941df258527283ea0c173a79",
        "events.jsonl":
            "5937ca93bc024630b93142eadf94f876a96a60e62a59c51fb4fa1199ba3bb5c6",
    },
    "twobasin-rs": {
        "config.json":
            "393d6e791a8e2f632f5151b64565b18d9eb5b23611ebec50055185930ed1c5f7",
        "metrics.csv":
            "1f94405cd4bdcf975f8c9573d16ac3b175a4e0bdf8f4a918ae3494fdda9940c9",
        "events.jsonl":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "lottery-pbt-variance": {
        "config.json":
            "9345aec7c6653c27ff83b7daf48396683910c543d2ca72cc681910d2394839e6",
        "metrics.csv":
            "bc7ffeadc989a5b0053e0e201441d5820d969d464d808b147cc380b106849e98",
        "events.jsonl":
            "54a09a764242506f3eb714a9908e86a3aa2231cf797c9573e129517f3203bebd",
        "checkpoints/round_000004.json":
            "2607d244d092c90487f7583e8ea5416e833261231c7400c748e0ebfde57c0943",
        "checkpoints/round_000008.json":
            "3bb376c61dbfba96623c786301f4425eb79ab3c68af28b75e5ab52ef66c1ab5b",
        "checkpoints/round_000012.json":
            "7f58f1bd699a1aec6ea87bab9923dc4537afe408a62b4890a264ece99dcd14db",
    },
    "mfpbt-noise-clamp": {
        "config.json":
            "5340e32b5903f65f4973e5b7ee6214f5e39a3a71e6cfc4273d8710624be12f8e",
        "metrics.csv":
            "2f56798a31e146910fc863c766dd6dc724b3768b1b9f538d212bee85ed76c4f3",
        "events.jsonl":
            "7ce0e72b0a06b89657253e1c8fc6a8252c8bf862e3facc5ec9383afa3b05d02c",
        "checkpoints/round_000004.json":
            "74e4e03dfeea2bd1303c89cd28fa07481ce787a34cc9798d7f1b6880f7fc3b8c",
        "checkpoints/round_000008.json":
            "e63e2ce006efbceff467a582e877015e8850594b99b3a972a51490601966403c",
        "checkpoints/round_000012.json":
            "7f075776822566906eb8e566132290ee5175e96f0a7cd6c7b61ef24c92e71d5b",
        "checkpoints/round_000016.json":
            "e0fbd72751ad0839cea458a61d8185746f1188eb2fd845352b0f16e86258d575",
        "checkpoints/round_000020.json":
            "07286ddc4bae83ed832f228de42d521426dce189686ed456ce14a755fe056482",
    },
    "mfpbt-variance-sym": {
        "config.json":
            "9c525d1b63a1cc3719385ce535850bd8bcc44d407a6d7b9f9e5717fed1b475c6",
        "metrics.csv":
            "48ac8ec3a37d654b4341806380f0bcd6c41786292baddcc3e465258af8e9376e",
        "events.jsonl":
            "12ee4d9cc2a152a5ff4599f79ff47042c52e4b9c4ad8bb2a8778cf153760c4c7",
    },
    "pbt-bt-forget": {
        "config.json":
            "080a4d03193b8d999442e6fb2476973c67cb58a3b839ce017286a28000a008cb",
        "metrics.csv":
            "3ef0462f064471608f8b155d256b9c3c214e5a299cbe5a729bcc43b796269b1a",
        "events.jsonl":
            "6eb9fc9b9e6f2e8ac57237000e829988b3ae072157da39752fb0d59b006e9837",
        "checkpoints/round_000002.json":
            "32a8a1e8bd911f5891ce4ce1de62349ca7f93aefecf243fd9ef80233bcacee0d",
        "checkpoints/round_000004.json":
            "b9efc747ce16e43ed05e597ac84b741ff8972fbe7570767bbd47167533978278",
        "checkpoints/round_000006.json":
            "b66511402351161b04e5615f424489e1043ac98f52688dab15cbaf16feae1a8c",
        "checkpoints/round_000008.json":
            "bb421962564590502f36ce371610f10ccf3514dc5fa738aa4316c6f3cc39d828",
        "checkpoints/round_000010.json":
            "92873ec28238572679556ea87533abce3ed187429231994e3916995c9f53633f",
        "checkpoints/round_000012.json":
            "235a2ea19a777411a6a9200fb01c7c50dfd72f5aa60fd119f58f5f17beacc8b5",
    },
    "pbt-checkpoints": {
        "config.json":
            "b8f238eaf4fed4b3160d1b847ff2b54fccc30ebee10bcf6bdf869fc531b40859",
        "metrics.csv":
            "28e9d5c443b27bf964c09a1cc9b571e8eccdc1f59901593f440933391bf73a36",
        "events.jsonl":
            "68be78baaa8a6aaff0541df1aeddc9d55ab9b394a7390dcdcf354715e717c33a",
        "checkpoints/round_000003.json":
            "60927664c488973cb47b1d39ae8c310d5c464189d6fcca7ca2c1ce53866367e8",
        "checkpoints/round_000006.json":
            "62430c56c7b48e811656facc5d0657a0e81a065ba7f43d377e98243db1a8b6ad",
        "checkpoints/round_000009.json":
            "70998256d64ad7eada0556a6d78021be8925712557cc75d789988fdd5fb3471f",
        "checkpoints/round_000012.json":
            "27dd419b1c8e5cbc5411824d7069a6ed800a1a41ce59c1a19c440f5f97a9785b",
    },
    "quadratic-pbt-clamp": {
        "config.json":
            "374ee233849f3a18605826ddf223c3ef2f81020113c39623495e0dcf6441d663",
        "metrics.csv":
            "3c250d0dd3d0fa7420cc6d4519c4d8077a0eef706bc9242027e3e3991f404d42",
        "events.jsonl":
            "cb74b82e6dd29d33b7aa2906cdb5b5abbfd47ef721cff045ba1b79655e5811b9",
        "checkpoints/round_000005.json":
            "4633c1cb40dc1c5235ca0e48b1ffbc9cac42b6e14ec2109d861b5bc6f9e6cc29",
        "checkpoints/round_000010.json":
            "4339da75fb87d8d3decf1f692e5b2a068fbabd786eec02775a71931dc96f6e60",
        "checkpoints/round_000015.json":
            "c80c1f07c8cd2ecddec341a49bb00bacfdc376b752b05f7b3cb7b39a9f6cb6e2",
    },
}


@pytest.mark.parametrize("name", sorted(PRESETS) + sorted(SMALL))
def test_run_directory_bytes_are_frozen(name, tmp_path):
    assert golden_run(name, tmp_path / name) == GOLDEN[name]


@pytest.mark.parametrize(
    "name", sorted(n for n, c in SMALL.items() if c.checkpoint_every > 0)
)
def test_resumed_run_directory_bytes_are_frozen(name, tmp_path):
    cfg = SMALL[name]
    crash = cfg.num_rounds // 2 + 1  # past a checkpoint, short of the end
    out = tmp_path / name
    run_experiment(cfg, seed=0, out_dir=out, stop_after_round=crash)
    run_experiment(cfg, seed=0, out_dir=out, resume=True)
    assert run_digests(out) == GOLDEN[name]


def test_every_preset_and_switch_is_covered():
    assert set(GOLDEN) == set(PRESETS) | set(SMALL)
    small = list(SMALL.values())
    assert any(c.checkpoint_every > 0 for c in small)
    assert any(c.trainable["params"].get("eval_noise") for c in small)
    assert any(c.trainable["params"].get("forget_prob") for c in small)
    assert any(c.clamp_hyperparams for c in small)
    assert any(c.variance_exploitation for c in small)


def test_backtracking_checkpoints_carry_elite_payloads(tmp_path):
    out = tmp_path / "pbt-bt-forget"
    golden_run("pbt-bt-forget", out)
    last = sorted((out / "checkpoints").glob("*"))[-1]
    entries = json.loads(last.read_text())["archive"]["entries"]
    assert entries
    for e in entries:
        assert set(e["payload"]) == {"format", "kind", "weights", "rng"}
        assert e["payload"]["rng"]["train_state"]["bit_generator"] == "PCG64"


# ------------------------------------------------ lineage and report outputs
#
# What `popsched lineage` and `popsched report` print and write over the
# golden runs above, with the temp root in stdout replaced by "<root>".

AGENT3_ROUND = 57


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_digests(root: Path, argv: list[str], files: dict[str, Path]) -> dict[str, str]:
    """Run one command in process; sha256 of its stdout and output files."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    digests = {name: sha256(path.read_bytes()) for name, path in files.items()}
    digests["stdout"] = sha256(stdout.getvalue().replace(str(root), "<root>").encode())
    return digests


def lineage_digests(root: Path, name: str) -> dict[str, str]:
    run_dir = root / name
    cases = {"replay": ["--replay"]}
    if (case_config(name)[1] or 0) >= AGENT3_ROUND:
        cases[f"agent3-round{AGENT3_ROUND}"] = ["--agent", "3", "--round", str(AGENT3_ROUND)]
    digests = {}
    for case, flags in cases.items():
        out = root / f"{name}.{case}.schedule.csv"
        got = cli_digests(root, ["lineage", str(run_dir), *flags, "--out", str(out)],
                          {"schedule.csv": out})
        digests.update({f"{case} {k}": v for k, v in got.items()})
    return digests


def report_digests(root: Path) -> dict[str, str]:
    """One report over every golden run cut at PRESET_ROUNDS (one round grid)."""
    dirs = [str(root / n) for n in sorted(GOLDEN) if case_config(n)[1] == PRESET_ROUNDS]
    out = root / "report"
    return cli_digests(root, ["report", *dirs, "--out", str(out)],
                       {"report.csv": out / "report.csv", "curves.csv": out / "curves.csv"})


@pytest.fixture(scope="module")
def golden_root(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("golden")
    for name in GOLDEN:
        golden_run(name, root / name)
    return root


# Recorded from the engine as it was before metrics.csv was read by column.
GOLDEN_LINEAGE: dict[str, dict[str, str]] = {
    "lottery-pbt-variance": {
        "replay schedule.csv":
            "ed088012960aa48efaa808fec71fadab74858180c9e12bd985244429b4f891a7",
        "replay stdout":
            "3c95611e3542d15d6c53e6a8e114be1249fd6be48dd55d4002e93baae48e12ce",
    },
    "mfpbt-default": {
        "replay schedule.csv":
            "b6348bd379be8918752d9f69d6f52755203c61455a434a5ab758f0d677ba20b3",
        "replay stdout":
            "2986cf9919bdf3fbf40aa08bdf73812e8655d74bbe032a1cc5c73efa9b719b54",
        "agent3-round57 schedule.csv":
            "f51d40e005a7405bdc0a04298e568d65e1fd8118a34bd3b03d0f30f7b79f73d4",
        "agent3-round57 stdout":
            "f4bcfc250592ff604a8fdd5c5db54eac5a272bf75367f78e877337e9baf842ad",
    },
    "mfpbt-geometric": {
        "replay schedule.csv":
            "0bcb4177b52c66e410fbe095a84513812e0e53fe07d528994a86a07c04b91d19",
        "replay stdout":
            "4672c34ebb758351bcb4a8c2ac34cda83287a39b6e4a231a0e5998a4c99a2b89",
        "agent3-round57 schedule.csv":
            "7447a53a3660b9c3cec21d79354132986ae23e66baf71109cf5102a3198cb381",
        "agent3-round57 stdout":
            "6c58f4fcc84083ffd9e6486d88fcf8087a433a46ba85f78ebecb47167b4864bc",
    },
    "mfpbt-n16": {
        "replay schedule.csv":
            "f67db36e363dcd622874e96ed0f92b7e0bf155a42341dab32d1b9f7257ef0a8e",
        "replay stdout":
            "d2d59de142b7d0675022076643ff300dd783f1857c0466727e5fa25535a2e4f3",
        "agent3-round57 schedule.csv":
            "06c077b6dbb3205e43b0799290f6414e6c368e3c8ecbf8b6e9b74ce0dfde780e",
        "agent3-round57 stdout":
            "49f49573bfae82c86a118f17cf43db38f6542a82f7eb8312a7efef1e02bb19b1",
    },
    "mfpbt-n64": {
        "replay schedule.csv":
            "7f5a136adcea327019947540b679fe4782cbb48f8743f92bfaaec4d028b3bfd2",
        "replay stdout":
            "41d5f829202816a2f47233aa509534accf1fe38f7c11eda434703ac274dfe82b",
        "agent3-round57 schedule.csv":
            "b49d357c565ff57c5a6c3e0a6b6f58c927bedbbf80287e21c95f271ed50c8599",
        "agent3-round57 stdout":
            "f9b2816369f7b6ab8e7b397dfc4193b65a888ab2ba876475fec652afe179a956",
    },
    "mfpbt-noise-clamp": {
        "replay schedule.csv":
            "a77de724733f3865ba11ffc07c56b89a1407a79ecb7d942e0a02736e9d8ec830",
        "replay stdout":
            "ca3a56182621db032508c0f810db373a0752d8941d78a272200cf8a987cefb1f",
    },
    "mfpbt-symmetric": {
        "replay schedule.csv":
            "31843c8430ba5094b48442861aa6b833f712fdd30fb7ac8bbe008afed905c9ee",
        "replay stdout":
            "b550e4ea46b8b3c19ae7c321b2c73e754048b6973c7abfd18cbbbc521aa4a3c3",
        "agent3-round57 schedule.csv":
            "298dc02cc7b86bcd1700d732660ce01add056bfea88d4876dc408915a1055cfb",
        "agent3-round57 stdout":
            "d3a090ef482d1e289eb0fea0905a41556aa33fc92db7fe2fb90f2b8d2bc96147",
    },
    "mfpbt-variance-sym": {
        "replay schedule.csv":
            "13ac0903128a932db0a22f25364bd22bba8a3f92e4b04aac806ba6a71b62c03e",
        "replay stdout":
            "d371fcc623f51b4d99ee4fddab69e4c22f47ab1725af376d44e07b5daef4190c",
    },
    "pbt-bt-default": {
        "replay schedule.csv":
            "6377747597714f5a5549bfb8864eda66f7148772a4b00d215e7f5cb6f9e04287",
        "replay stdout":
            "86288e683fcb3eac0a22bdc5b32c2ee5b653ab4dd1f1996f3b5b690360c32aed",
        "agent3-round57 schedule.csv":
            "dd7f4000975cfc8a8ca4492c7fe0b55850e6b941bc32c8142171f02170db1ad7",
        "agent3-round57 stdout":
            "2611aeaa34fb6d529608899ff8958f3bd03faf6b13b75a4e74b3b1281104189b",
    },
    "pbt-bt-forget": {
        "replay schedule.csv":
            "607dad8af61a9271feb3dc9c2a6e6252f5977c6f09d833751ebc8f48654b51b3",
        "replay stdout":
            "c3c941c2655012fa5744e2f48e60be4477143d4b84a0180c9142ee0938ca25f5",
    },
    "pbt-checkpoints": {
        "replay schedule.csv":
            "81d9abf9eb9817adc673cff0c4273801a24d5e2b6abd055fa933593950dbbc16",
        "replay stdout":
            "a7693be3dbfdf11313015fd8f68dd421bd816e74d3f8bf0444039dbafe83ed7b",
    },
    "pbt-delta1": {
        "replay schedule.csv":
            "f55d462b3251238f7613993ea5c8d8c4c60227439bcb1c3a3b8850dbf6b586b9",
        "replay stdout":
            "9b0dddf5617d2a114e84372c09a53e4754197a61d07fb79c98b7dc850fee11c7",
        "agent3-round57 schedule.csv":
            "3804acdee76ac0580eab5109bea0f528e29fd606b66f9433196b565f0f02263b",
        "agent3-round57 stdout":
            "ded887bcb91eb34ee4da1a4712e088ec4e729a9b5808ac59f6551b0a5c62b99f",
    },
    "pbt-delta10": {
        "replay schedule.csv":
            "63b1d26def2b0cdd6737f8d8ded3999615558ba2cdbcc9312a8a0175d51d630c",
        "replay stdout":
            "da213f8a366941ca332c3da11ce93fe70e7b77c3c62b77ef670ecfece7f672a7",
        "agent3-round57 schedule.csv":
            "d91d057b43858c9e76acab8602feb773954c0b24079960dfb3565066783715da",
        "agent3-round57 stdout":
            "d4990546d545731dc3336968e27acd692154821a39635f5e412432f8187157db",
    },
    "pbt-delta25": {
        "replay schedule.csv":
            "d5a78d7c0c48e90b9b696dda12d31a703722579d2061805990a54f564fb66742",
        "replay stdout":
            "88ce72abdf749f2aedca5e00671ce9e04496d823dd22f4f36b9bcfda5002b957",
        "agent3-round57 schedule.csv":
            "f80781f05f14078a4ca8ac1aa9841a661a5e4d76b8e07785e6490a7d2039313e",
        "agent3-round57 stdout":
            "31e694c4b8b786c5ebbaaf80488ac18dde6cddef1ba9b43d52e85a2eb7ee5002",
    },
    "pbt-delta50": {
        "replay schedule.csv":
            "5b39449e76e0016592b31ec7d88577e3075765a57c2796fb0e73c33f9334e001",
        "replay stdout":
            "a52af42a01edcd9cf71e4042c76545d115a1333e74cd191ebdbdef9bc29eedc7",
        "agent3-round57 schedule.csv":
            "f80781f05f14078a4ca8ac1aa9841a661a5e4d76b8e07785e6490a7d2039313e",
        "agent3-round57 stdout":
            "7fe947d34192475733d05990acdf55ad9aadc28c102617f7857be8b82bb17050",
    },
    "quadratic-mfpbt": {
        "replay schedule.csv":
            "760ab6a37e43dbdce6b48a3548e0d4904280ece77ec0c7bfc28aec0b648fb217",
        "replay stdout":
            "5dc9ec78abe3978fb71bdc33819ab611777aab2573beeb967094cd9cdf90b59a",
        "agent3-round57 schedule.csv":
            "b626124b6e9503c38d90f4c82bda33ba6f10a97a3053afa337679e497a338b3d",
        "agent3-round57 stdout":
            "6357e29c09b8f3f6607a1e85fdcc80a979d1d1c156e86f02be28661874c6a8bb",
    },
    "quadratic-pbt-clamp": {
        "replay schedule.csv":
            "b6dc8489b84b5d66bf2ce570da01ead6d470312255e55475627ed37f7a2c27fb",
        "replay stdout":
            "41e48f98335f6f96184de30141432176e3a5cfa22eeb1efbafce70345f4dd676",
    },
    "rs-default": {
        "replay schedule.csv":
            "5b39449e76e0016592b31ec7d88577e3075765a57c2796fb0e73c33f9334e001",
        "replay stdout":
            "8e3f868a062329a7f3358f901b79317200ac3ab9081ce39ae6bc57767d9a4190",
        "agent3-round57 schedule.csv":
            "f80781f05f14078a4ca8ac1aa9841a661a5e4d76b8e07785e6490a7d2039313e",
        "agent3-round57 stdout":
            "ffa507c26234a79cba83e4b7a4afa6c431c84a8fd32d86e04fd7dd1e9e725f02",
    },
    "seedlottery-mfpbt-var": {
        "replay schedule.csv":
            "7a00e580bb71d791d24a40a51b08fd5c79d10e1a59663e11e325779d0d5b7624",
        "replay stdout":
            "63a0926e846c7c2165f1df098e537a3baff412e05f010f98aa901762bb8269d2",
        "agent3-round57 schedule.csv":
            "c0afcd692dd75ee6e7340495c9f3754468680f68a49ccb754838c5ccacba4535",
        "agent3-round57 stdout":
            "0adf372ec9c3e56c7784b405b878d0e4280ff6ecf8b8fba531405c9ee31f5ce1",
    },
    "seedlottery-rs": {
        "replay schedule.csv":
            "115159b78588c1df8e737be45d9e960c16b2144971b22aaceb3c57f1e02684d5",
        "replay stdout":
            "7712fee4426833d90816d115c8d1db4f3efbca6683f294322720d82227e943a7",
        "agent3-round57 schedule.csv":
            "7135b48db5f14ca3af55c4d3989539070089c4798a6b4aa0c6dc22e759f708d6",
        "agent3-round57 stdout":
            "02ae1f018fe03022c1ff0ed66ce6c8355c1713b44b597def38a9edcf5b40ebfa",
    },
    "twobasin-mfpbt": {
        "replay schedule.csv":
            "e3c3be7deccc0706d0809f40e34be4bd114b422a42f81cedcb0f2e2e2575dc9e",
        "replay stdout":
            "ba4c67b2fc00ae69021456e298bb11afb978f9564edb014f81891e6f04514547",
        "agent3-round57 schedule.csv":
            "cfce8ba5dd35e30cf605d4c081ae027d97ac4fc418e0fb71cfed583459a60ded",
        "agent3-round57 stdout":
            "59e055be483f3d7cc5cd74864c017c6be4b22e880221a1bb59156918b8a331f8",
    },
    "twobasin-mfpbt-sym": {
        "replay schedule.csv":
            "1f500fd2215abe863bf7be786332760ace9d4cec1c7a53502db18393cc352026",
        "replay stdout":
            "6a93ea1bd44cc794a19d4a99797897d78b1f00192935ee12d872b52b58606519",
        "agent3-round57 schedule.csv":
            "dcaca0dc357b6f2de2e441bf102f1828fd95af27e80b7723f54338fc53842891",
        "agent3-round57 stdout":
            "1f9123155c08ec4ad9325d96d74030159cc4dc54dc894f54f5b7430af6140d31",
    },
    "twobasin-pbt-delta1": {
        "replay schedule.csv":
            "e73776b814fd0ef7fa9cc2c2679ccc5a13a24cf0b79338335c81a0346536ed46",
        "replay stdout":
            "0b1e4e7c95cfc2a953b17729c3c5797e940338b2406176ed99089a546d5675f5",
        "agent3-round57 schedule.csv":
            "04e8e6601d9618181a45cce16d5c4576055410aef25d38ed58ff508d019d224b",
        "agent3-round57 stdout":
            "bc7261ba9689f16e3ace360240c86189e2563cafd0f88ecd8ce42483ee702b7c",
    },
    "twobasin-pbt-delta16": {
        "replay schedule.csv":
            "019688aa4e4195b46932ead9ea46b9fc7ab481d0274cf13eb170c321ecc8888e",
        "replay stdout":
            "af76359bb6c0f08b3c8838ad78f2bf978b539f1831848f7b7992b00617966eb1",
        "agent3-round57 schedule.csv":
            "f80781f05f14078a4ca8ac1aa9841a661a5e4d76b8e07785e6490a7d2039313e",
        "agent3-round57 stdout":
            "a71816c828c93dbb5360f0a7a006017acdb9dd29eb1cfcf337fb3c63d8469a3d",
    },
    "twobasin-pbt-delta4": {
        "replay schedule.csv":
            "4411c558926fc9dbbf32cb8c6552762e9cc5a4d76b4399c6a4e5f67295526cf6",
        "replay stdout":
            "de87e87c4aeff2058cb08482badfd963e9642ca94b1d3f792e270b470adff909",
        "agent3-round57 schedule.csv":
            "1ebe0bd2a036dd7a2a23d5698e7a2f5cf47538935598238d56fe98fda50c1f3a",
        "agent3-round57 stdout":
            "3a161fef6141d2e5f0892173422056beaa92bdacd7d3a77da6bfe4ce54a7f755",
    },
    "twobasin-pbt-delta8": {
        "replay schedule.csv":
            "e3e09c14c42980e0dbde6bcfcde8d04d43ae407d1512fc62a8fcfa716aae56e3",
        "replay stdout":
            "85f7a02fc285c01302e8a27fbdbd0ca01ec98ce1ee6f42d0aff48b9615dbc5e9",
        "agent3-round57 schedule.csv":
            "7ce3443a3a8c224b9394af44646248e9e03e50e49334fe3782d08d8b1fbe22df",
        "agent3-round57 stdout":
            "ef9a191f2071b02df5f8ec906ef6a6c308aa6fe7dd401e255f2f328686b08157",
    },
    "twobasin-rs": {
        "replay schedule.csv":
            "5b39449e76e0016592b31ec7d88577e3075765a57c2796fb0e73c33f9334e001",
        "replay stdout":
            "482b0cc3742a879d43f6852757a35971c4cf817178d988f5871f1b641b9b8893",
        "agent3-round57 schedule.csv":
            "f80781f05f14078a4ca8ac1aa9841a661a5e4d76b8e07785e6490a7d2039313e",
        "agent3-round57 stdout":
            "f6cc7574136ee8fd1e7b1117dd618f36bc0a772db4fa8e6ead1b4f81ca3818c1",
    },
}

GOLDEN_REPORT: dict[str, str] = {
    "report.csv":
        "d2f0ab319f2c3dfa304246bcdbbdccfbdde31001c36c305e1ecd787e475ef2f2",
    "curves.csv":
        "b6edc07fb3f2fbc47f825c91b78c6bcababca5fa4c8d668524624692926d97e3",
    "stdout":
        "b4f52ed32d6f59d0334d21943b7a9952a3b44954442d2b2fb94c5b86727a2215",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_lineage_outputs_are_frozen(name, golden_root):
    assert lineage_digests(golden_root, name) == GOLDEN_LINEAGE[name]


def test_report_outputs_are_frozen(golden_root):
    assert report_digests(golden_root) == GOLDEN_REPORT


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_block_readers_equal_line_by_line_decoding(name, golden_root):
    """Each golden log read in blocks equals its line-by-line decoding."""
    run_dir = golden_root / name
    assert_readers_match_per_line(run_dir / "events.jsonl")
    got, want = read_metric_columns(run_dir / "metrics.csv"), per_cell(run_dir / "metrics.csv")
    assert [list(map(repr, c)) for c in got] == [list(map(repr, c)) for c in want]
