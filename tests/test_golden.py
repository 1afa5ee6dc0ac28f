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
    "k2_ones": "5f3d70bf091400d964873cac1a8d3e667a78c3d9857a9ed0f4554ff158b4d292",
    "k2_none": "dd01cb9f6368cd62996940acce994a19e739cfd248e69249f730ef73da1c93e9",
    "k2_mod3": "2640615a62f6d010a27f3984ee1872d10dd255caeb581f6cba5cf4e3e19edc8b",
    "k2_skew": "a29db858eac992c82823b27d0598b0927cdb90687341311fa1c571ab3de84f9e",
    "v_s3_alt": "a408f79d86df8648d296204130aecd36a5f032e6fd89bf4e776e904a9e03277b",
    "v_prod_w": "75c1bef813720a50d4388e82a8106693ebb7ce972de76b276592e04e9537b4b5",
    "v_2z3": "e23a713a7d1cb5db6b0fc6efea8253ab70d42da905805676777f01e56d6dd866",
    "v_2z3_i": "8cc1af4aa1e8b2fdad3c89a50b08b943e08ef201f0efdadaf9d0142d42cfd422",
    "v_none": "043651f85cf690a07d2ec5b067c0b5d223021e770441aaca2671565155b8390b",
    "li5_i~": "b3e588aa8d69bd908d5599bbd4a445b10f42819fb5e4ea7b3b017768618b4ec4",
    "q_z3_w~": "f2cc7831004420e38bc686fe2b6e9579e0553aeee2b6411de35c57b87df3cb08",
    "q_2z3_i~": "970c9ab15a6477726c1844bed581f1098bdbccd3b51dc47bb5a1c3ab1f95914d",
    "q_z3_i~": "f78662cccb2a54cc96e7565325002aee7738ff934ddce64720da976b68fb53c1",
    "k2_mod3~": "1d08dbfbac59135b7b16549a37a5871e2e31ebecd64d7175e2692d615d36fcfe",
    "v_prod_w~": "75c1bef813720a50d4388e82a8106693ebb7ce972de76b276592e04e9537b4b5",
    "v_2z3_i~": "970c9ab15a6477726c1844bed581f1098bdbccd3b51dc47bb5a1c3ab1f95914d",
}

TRACE_GOLDEN = {
    "k2_mod3": "de10be4553455158ce6f059be36e9789b9077a4bc2a35d0078f16bc571451d4e",
    "k2_skew": "ba97c4885f51235c2778a644db03aaca0bb0039809ba3530dfb639005183c5cd",
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
