"""Golden digests of every analyze output on the reference workloads.

The other export tests compare a run with its own re-export, so a change that
alters every renderer the same way would pass them. These SHA-256 digests pin
the bytes themselves. The attrs and SQL forms of the reference workload use
the same queries, so they must produce the same files. snapshot.json records
its run's paths, so its digest is pinned on a run with relative ones.
"""

from __future__ import annotations

import hashlib
import json
import shutil

import pytest

from attrscale.cli import EXIT_OK, main

GOLDEN_SHA256 = {
    "adm.csv": "72a22595b8df81dbfb70641f542e402c15899a589d389dfa377a548f19387b3a",
    "adm.json": "1dbabe620e99b275c5a47aad41bc21cafe0d1efc3eacec5be468d8fd3499be53",
    "diagnostics.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "mvsd.csv": "2c994286990bad27afa89cabcd2ae1923aa71d6420443544494de1eab86e8e87",
    "mvsd.json": "5c638ad70211dc02fb146d07ca6143c2dc929a8ac4eccae1dffaf23a852f85cd",
    "nnsm.csv": "8a787731c4dceff1eb449a866575ec3569aef7db8c490e876980fe92c891dc90",
    "nnsm.json": "5e39ba477258809975634693e278315e615ff75f9e167304f968142a6dc39457",
    "nsm.csv": "80b750a0aeb3cf806b476d9234514ef977c1fab34bad3589970eb70cf06bf181",
    "nsm.json": "12f0e0759cc5dd15e2fecbb66e5a52f9d07980a6ff4932a633711a57b6ab3102",
    "pdm.csv": "5d2e8a3379d53eb6a16b1949533e1d7d17bba40e335a2da868e6b3712f4157d1",
    "pdm.json": "87dbddb553969da68f63b80fd46786a1825f0e978ae3b40634e9481b76ddc0e1",
    "qaum.csv": "2f0cd6c804f561fe7b02dc2ada2adcbcfdafdfc75ff493c9a52184aca91e174f",
    "qaum.json": "3d8a51cee8796cc916fc7a2d244ebdba7b432eff99791efaec921873ce1b1622",
    "warnings.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
}


@pytest.mark.parametrize(
    "workload, input_format",
    [("reference_workload_attrs.jsonl", "jsonl-attrs"), ("reference_workload_sql.jsonl", "jsonl-sql")],
)
def test_analyze_outputs_match_golden_digests(capsys, data_dir, tmp_path, workload, input_format):
    out = tmp_path / "out"
    code = main([
        "analyze",
        "--input", str(data_dir / workload),
        "--input-format", input_format,
        "--catalog", str(data_dir / "reference_catalog.txt"),
        "--out", str(out),
    ])
    capsys.readouterr()
    assert code == EXIT_OK
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir() if p.name != "snapshot.json"
    }
    assert digests == GOLDEN_SHA256


SNAPSHOT_SHA256 = "a6048c5921af4b7c65f65c755f76360e49ff24d41e7c384cd3345b8a4182df80"


def test_snapshot_of_a_run_with_relative_paths_matches_its_golden_digest(capsys, data_dir, tmp_path, monkeypatch):
    # a snapshot one version writes must load in the next, so its bytes are pinned too
    shutil.copy(data_dir / "reference_catalog.txt", tmp_path / "catalog.txt")
    shutil.copy(data_dir / "reference_workload_attrs.jsonl", tmp_path / "workload.jsonl")
    monkeypatch.chdir(tmp_path)
    code = main([
        "analyze", "--input", "workload.jsonl", "--input-format", "jsonl-attrs", "--catalog", "catalog.txt", "--out", "out",
    ])
    capsys.readouterr()
    assert code == EXIT_OK
    data = (tmp_path / "out" / "snapshot.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == SNAPSHOT_SHA256
    payload = json.loads(data)
    stored = payload.pop("content_hash")
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    assert stored == "sha256:" + hashlib.sha256(canonical.encode("ascii")).hexdigest()
