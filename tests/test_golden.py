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

import hashlib
import json
from pathlib import Path

import pytest

from popsched.core import HyperparamSpace, SpaceEntry
from popsched.presets import PRESETS, get_preset
from popsched.runner import ExperimentConfig, run_experiment

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
