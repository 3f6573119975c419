# Byte-identity guard: sha256 digests of the files `brownsim run` writes, for
# runs whose output must not move when the engine is restructured.

import hashlib
import json
from pathlib import Path

import pytest

from brownsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = ROOT / "configs" / "sample.json"

# 2 mandatory containers plus 16 optional ones of 0.025 (14 untagged and a
# tagged pair: 15 units), every one on each of the 10 hosts.
DENSE_STACK = (
    [{"id": "web", "service": "shop", "weight": 0.35, "replicas": 10},
     {"id": "db", "service": "shop", "weight": 0.25, "replicas": 10}]
    + [{"id": f"opt{i:02d}", "service": "shop", "weight": 0.025, "optional": True,
        "replicas": 10, **({"connection_tag": "pair"} if i >= 14 else {})}
       for i in range(16)]
)


def _sample_variant(tmp_path, edit):
    raw = json.loads(SAMPLE.read_text())
    raw["trace"]["path"] = str(ROOT / "data" / "diurnal_day.csv")
    edit(raw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def _twenty_hosts(raw):
    # replicas stay 10, so h10-h19 carry no container
    raw["hosts"]["count"] = 20
    raw["trace"]["scale"] = 2.0


def _dense(raw):
    raw["services"] = DENSE_STACK


CASES = {
    # configs/sample.json at u_t 0.7, one case per policy
    "NPA": ("NPA", None,
        "c83488537376d7e29ec77b0d4b24f9b787b3750e7c5348b39be7726f17756090",
        "6b0b8ddf5c305868196cd0f28dbb851c826f2df12fe175c9906ea5297ba7b437"),
    "AUTOS": ("AUTOS", None,
        "56ed6ba4d1e530d9439a4673cc8eea3fdf2c06002fcd2a156f7d0692c3a5bc20",
        "a695c4f555d0731b2c0cfab35fed7200f67cd3c88227dc7bd208b2a91ed64ce2"),
    "LUCF": ("LUCF", None,
        "77f9a5921ab4503bdc70aec56a3cbc8001696d3075175fe09e245883c6cca16f",
        "346b6ca4d7d9a9c1d0d316bb35a0185541c2106d98bbb2fbe59cb5cb09e35ca7"),
    "MNCF": ("MNCF", None,
        "dc5bdea80ed3d1b85abe91d75343221f2dcae452d16e3952660a093d07d2bf9b",
        "346b6ca4d7d9a9c1d0d316bb35a0185541c2106d98bbb2fbe59cb5cb09e35ca7"),
    "RSC": ("RSC", None,
        "b8ae10b8eff5eca769eb0c69059740455772f36dd145b5273aaa3008c3cc6d45",
        "346b6ca4d7d9a9c1d0d316bb35a0185541c2106d98bbb2fbe59cb5cb09e35ca7"),
    "LUCF-20-hosts": ("LUCF", _twenty_hosts,
        "d024d0c6d1d0f2d3a9860f4616bd3e0f71a1c0acf40c5b3568ff6fb3098bca19",
        "8aade7435cd4b6d76b06459b7b020b07e9a677a6f63925f429eda79afce9c4fe"),
    "LUCF-dense-stack": ("LUCF", _dense,
        "867c7c86d2f709bcb423bd4a450dd9378f7b0721f29841c887b6202842059d7b",
        "c36292a0dc538ea1abec30bc26e48c013ca3dd0d36efdd454d0ee8a1536dbad0"),
    "MNCF-dense-stack": ("MNCF", _dense,
        "313dbfa1b6109e00bcea477bfcf1f1e0ad4b60d3d6317b0ad028b782ed947bd4",
        "c36292a0dc538ea1abec30bc26e48c013ca3dd0d36efdd454d0ee8a1536dbad0"),
    "RSC-dense-stack": ("RSC", _dense,
        "09db3a30696603e7a998fe6325ee3168f6b2fcb0c8ef11a36617712c3f67b8db",
        "c36292a0dc538ea1abec30bc26e48c013ca3dd0d36efdd454d0ee8a1536dbad0"),
}


def _run_digests(tmp_path, policy, edit):
    config = str(SAMPLE) if edit is None else _sample_variant(tmp_path, edit)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--policy", policy, "--u-threshold", "0.7",
                 "--out", str(out)]) == 0
    return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                 for name in ("result.json", "intervals.csv"))


@pytest.mark.parametrize("case", list(CASES))
def test_run_output_is_byte_identical(tmp_path, case):
    policy, edit, result_sha, intervals_sha = CASES[case]
    assert _run_digests(tmp_path, policy, edit) == (result_sha, intervals_sha)
