# Byte-identity guard: sha256 digests of the files `brownsim run` writes, for
# runs whose output must not move when the engine is restructured.

import difflib
import hashlib
import json
import shlex
from pathlib import Path

import pytest

from brownsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = ROOT / "configs" / "sample.json"
HEADLINE = ROOT / "results" / "headline.txt"

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
        "579f63359e7cf0334b65506b1abb90e2cd2d767524d0af29f566c2b0fd4f10f5",
        "6b0b8ddf5c305868196cd0f28dbb851c826f2df12fe175c9906ea5297ba7b437"),
    "AUTOS": ("AUTOS", None,
        "e837076cbad3359e29ad942a13886eedaf7429d2a81c36f724f7dfc3c01a00b6",
        "a695c4f555d0731b2c0cfab35fed7200f67cd3c88227dc7bd208b2a91ed64ce2"),
    "LUCF": ("LUCF", None,
        "0b75ba1b6c147475f66face2904ac81647ade8739b31d2ead0f508f02548b638",
        "346b6ca4d7d9a9c1d0d316bb35a0185541c2106d98bbb2fbe59cb5cb09e35ca7"),
    "MNCF": ("MNCF", None,
        "2cbf41d46b0ba9a0ddb52aaa1047ffb1c26963a7238e2ac2da3c19cbc01a549a",
        "346b6ca4d7d9a9c1d0d316bb35a0185541c2106d98bbb2fbe59cb5cb09e35ca7"),
    "RSC": ("RSC", None,
        "96e29624cd1aab2b2b9c74dc1caba07f90ea33aff905ad685cd248f11ac7a408",
        "346b6ca4d7d9a9c1d0d316bb35a0185541c2106d98bbb2fbe59cb5cb09e35ca7"),
    "LUCF-20-hosts": ("LUCF", _twenty_hosts,
        "0ae66408cdf62a002cb9b2bac7c6d47508c6dac6d755874b59a8d96aae441a56",
        "8aade7435cd4b6d76b06459b7b020b07e9a677a6f63925f429eda79afce9c4fe"),
    "LUCF-dense-stack": ("LUCF", _dense,
        "d4e7f81a8de1c7244b9c115fa9a21e9bafe463d8c89c041f4f12bd878f3c34c7",
        "c36292a0dc538ea1abec30bc26e48c013ca3dd0d36efdd454d0ee8a1536dbad0"),
    "MNCF-dense-stack": ("MNCF", _dense,
        "4e8a1ef2f9d585a355096b997a5517ec04b3d4f3dce7763df787fa3fd8ced7be",
        "c36292a0dc538ea1abec30bc26e48c013ca3dd0d36efdd454d0ee8a1536dbad0"),
    "RSC-dense-stack": ("RSC", _dense,
        "48e68a50801d9d9919731fc1623d4f2fe39d360c1d32950a8793d91c498dbbf8",
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


def test_the_headline_table_is_its_command_s_summary(tmp_path, capsys):
    # results/headline.txt is "# " and the `brownsim compare` that makes it,
    # run from the repository root, then that sweep's summary.txt: a
    # behaviour change shows as the rows it moves
    command, _, table = HEADLINE.read_bytes().partition(b"\n")
    args = shlex.split(command.decode().removeprefix("# brownsim "))
    args[args.index("--config") + 1] = str(ROOT / args[args.index("--config") + 1])
    args[args.index("--out") + 1] = str(tmp_path)
    assert main(args) == 0
    capsys.readouterr()
    made = (tmp_path / "summary.txt").read_bytes()
    assert made == table, "\n".join(difflib.unified_diff(
        table.decode().splitlines(), made.decode().splitlines(), "results/headline.txt",
        "regenerated", lineterm=""))
