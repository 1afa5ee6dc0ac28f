"""Golden answers: the reduction of every timed pool job stays byte-identical.

The digests were taken before a refactor of the reduction and must not move:
the symbolic answer is canonical, so a change that keeps the behaviour keeps
these bytes.  Each digest is the SHA-256 of the compact, key-sorted JSON of
`[symbolicValue, stats, exit code]` from `cli.run_job(job, "reduce")`, for
the `small_jobs`, `superlattice` and `verify_direct` jobs of
`perfbench/pool.json` and for the conjugate-character variant of each job
whose character modulus exceeds 2 (id suffix "~").

TRACE_GOLDEN pins the SHA-256 of the `--trace` file of two superlattice jobs
(mixed moduli and a skew form), which prints every CycloNumber with its
repr.
"""

import hashlib
import json
import os

import pytest

from conezeta import cli

POOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "perfbench", "pool.json")
WORKLOADS = ("small_jobs", "superlattice", "verify_direct")

GOLDEN = {
    "z2": "330cc1720eb1fc3774173501132885812acb0d7fae8b7b56a788325bea9cb837",
    "eta2": "00e04556375894d7bdf0b2c4ba79c4ac72221e08a738119a879321b07433739e",
    "li5_i": "d0bb02b2fa47d83c755b3e855f5167c544f8d77df7d44db086d249957a3d7b05",
    "q_z3": "6a002948d1721fbbae4f3ab408c9d4cebfd10c788dfaba870532e4fef2285c3b",
    "q_2z3": "e23a713a7d1cb5db6b0fc6efea8253ab70d42da905805676777f01e56d6dd866",
    "q_s3_alt": "a408f79d86df8648d296204130aecd36a5f032e6fd89bf4e776e904a9e03277b",
    "q_z2sq": "c4c822999f92e91a53e527efac7a04fab6e7cbd04f3d2862c7ee6c7e2c0d18e3",
    "q_z3_w": "19947f36efcead73f67431fad8ae325108ccc0027094cf8cf7e84b6a7e4d7fa3",
    "q_w5": "78b28e09d602838696d6d3ef3235b12e82b6bd1a78fe44a50bbc924926f5e16a",
    "z2cubed": "c97b677bff79a82575e106cdd7f7a1cbaf6eb126622e3ee8244f323f1184b543",
    "q_2z3_alt": "d62a5432248bece42ff95788789c81a485b8e9a8d8d53db17f0a5890a712eea2",
    "q_2z3_i": "8cc1af4aa1e8b2fdad3c89a50b08b943e08ef201f0efdadaf9d0142d42cfd422",
    "q_z3_i": "ee631693a80f54753c62855e3e6456a4e1e6e327bce8fc84b8d6505f99078b82",
    "k2_ones": "12261a7bb019883bda4a1c5ecbce3decf2d1e5e7eabd02f6f24d77e413407522",
    "k2_none": "a278d9f81f8dacf24c3c3dcff8f77edc7d231718d4fe3d55c1a625010f418668",
    "k2_mod3": "482db702cb8afba7baafbc795b470f0060fd99f7df1c4819d504ab435dc71ef3",
    "k2_skew": "8d06d1383a8b6e7deb5d0ce5f9a2e2b3fede9fe2109cb5605fb81128a2bf3263",
    "v_s3_alt": "a408f79d86df8648d296204130aecd36a5f032e6fd89bf4e776e904a9e03277b",
    "v_prod_w": "75c1bef813720a50d4388e82a8106693ebb7ce972de76b276592e04e9537b4b5",
    "v_2z3": "e23a713a7d1cb5db6b0fc6efea8253ab70d42da905805676777f01e56d6dd866",
    "v_2z3_i": "8cc1af4aa1e8b2fdad3c89a50b08b943e08ef201f0efdadaf9d0142d42cfd422",
    "v_none": "304421b32f89ca91ae6920d2b1c28ce9824f5aee2af0003f2bd06ec2730f32b1",
    "li5_i~": "b3e588aa8d69bd908d5599bbd4a445b10f42819fb5e4ea7b3b017768618b4ec4",
    "q_z3_w~": "f2cc7831004420e38bc686fe2b6e9579e0553aeee2b6411de35c57b87df3cb08",
    "q_2z3_i~": "970c9ab15a6477726c1844bed581f1098bdbccd3b51dc47bb5a1c3ab1f95914d",
    "q_z3_i~": "f78662cccb2a54cc96e7565325002aee7738ff934ddce64720da976b68fb53c1",
    "k2_mod3~": "42c92546fab657860ba29ed1bc473ebe556a8dace81b31cee55c671e70a3c879",
    "v_prod_w~": "75c1bef813720a50d4388e82a8106693ebb7ce972de76b276592e04e9537b4b5",
    "v_2z3_i~": "970c9ab15a6477726c1844bed581f1098bdbccd3b51dc47bb5a1c3ab1f95914d",
}

TRACE_GOLDEN = {
    "k2_mod3": "6f778c56780d30a1de1fba83702566d47a24c5ad82d329a4fdd722b08fcc1149",
    "k2_skew": "ae470be6a1aaefa08e5d34e0599ed9642fcfe08d0cda06f5368905296edff708",
}


def _jobs():
    with open(POOL) as fh:
        pool = json.load(fh)["workloads"]
    slots = [s for w in WORKLOADS for s in pool[w]]
    jobs = {s["id"]: s["job"] for s in slots}
    for s in slots:
        ch = s["job"].get("character")
        if ch is not None and ch["modulus"] > 2:
            job = json.loads(json.dumps(s["job"]))
            job["character"]["exponents"] = [(-e) % ch["modulus"]
                                             for e in ch["exponents"]]
            jobs[s["id"] + "~"] = job
    return jobs


JOBS = _jobs()


def test_golden_covers_the_pool():
    assert sorted(JOBS) == sorted(GOLDEN)


@pytest.mark.parametrize("job_id", sorted(GOLDEN))
def test_reduction_bytes_unchanged(job_id):
    report, code = cli.run_job(cli.parse_job(JOBS[job_id]), "reduce")
    blob = json.dumps([report["symbolicValue"], report["stats"], code],
                      sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN[job_id]


@pytest.mark.parametrize("job_id", sorted(TRACE_GOLDEN))
def test_trace_bytes_unchanged(job_id, tmp_path):
    path = tmp_path / "trace.json"
    cli.run_job(cli.parse_job(JOBS[job_id]), "reduce", trace_path=str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == TRACE_GOLDEN[job_id]
