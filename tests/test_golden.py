"""Golden trace fingerprints.

Each case runs an optimizer on a fixed problem for seeds 0-2 and
hashes the bytes ``write_trace`` produces.  The digests were frozen
before the engine kept its population in arrays, so any change to the
update rules, the random stream consumption order, ranking, the stall
rule or the trace format shows up here as a mismatch.
"""
import hashlib

import pytest

from labopt import machining
from labopt.baselines import BaselineConfig, run_baseline
from labopt.benchmarks import build_problem
from labopt.engine import LabConfig, run
from labopt.persist import write_trace

SEEDS = range(3)


def _lab(make_problem, **config):
    return lambda seed: run(make_problem(seed), LabConfig(seed=seed, **config))


def _baseline(algorithm, make_problem, budget=None):
    budget = budget or LabConfig().population * (LabConfig().max_iterations + 1)
    return lambda seed: run_baseline(
        make_problem(seed),
        BaselineConfig(algorithm=algorithm, budget=budget, seed=seed),
    )


def _machining(key):
    return lambda seed: machining.get(key).problem


def _benchmark(spec_id, dim=None, noisy=False):
    return lambda seed: build_problem(
        spec_id, dim=dim, noise_seed=seed if noisy else None
    )


CASES = {
    **{
        f"lab/{spec.key}": _lab(_machining(spec.key))
        for spec in machining.machining_registry()
    },
    "lab/F5": _lab(_benchmark("F5")),
    "lab/F10": _lab(_benchmark("F10")),
    "lab/F19": _lab(_benchmark("F19")),
    "lab/F32-noise-seeded": _lab(_benchmark("F32", noisy=True)),
    "lab/F44@5": _lab(_benchmark("F44", dim=5)),
    "lab-greedy/F10": _lab(_benchmark("F10"), greedy_acceptance=True),
    "lab-greedy/edm:MRR": _lab(_machining("edm:MRR"), greedy_acceptance=True),
    "lab-2x3/F10": _lab(_benchmark("F10"), num_groups=2, group_size=3),
    "lab-3x7/edm:MRR": _lab(_machining("edm:MRR"), num_groups=3, group_size=7),
    **{
        f"{algo}/{name}": _baseline(algo, make)
        for algo in ("random_search", "sa", "pso")
        for name, make in (
            ("edm:MRR", _machining("edm:MRR")),
            ("F10", _benchmark("F10")),
            ("F19", _benchmark("F19")),
        )
    },
    # 37 = 20 + 17: a partial last batch (PSO's prefix, SA's short stage)
    **{
        f"{algo}-37/{name}": _baseline(algo, make, budget=37)
        for algo in ("random_search", "sa", "pso")
        for name, make in (
            ("edm:MRR", _machining("edm:MRR")),
            ("F10", _benchmark("F10")),
        )
    },
}


def case_digest(name, tmp_dir):
    """sha256 over the trace files of seeds 0-2, in seed order."""
    h = hashlib.sha256()
    for seed in SEEDS:
        path = write_trace(CASES[name](seed), tmp_dir / f"seed{seed}.csv")
        h.update(path.read_bytes())
    return h.hexdigest()


GOLDEN = {
    "lab-2x3/F10":
        "ef5acca02e14999b7d3bcd2b8a209ae638980eabdb1b68787fbec0e4de2db5a5",
    "lab-3x7/edm:MRR":
        "592922e3fa835bbce523db49a39da95716dd8b185747457801e387953a6ef110",
    "lab-greedy/F10":
        "b74e464aacd6969a6ef11d0e5e3a2ed7bfdbcf134f0fd326220ca430576a44dd",
    "lab-greedy/edm:MRR":
        "7d8422aeaeb0ff7a3db88124bb9851e4244ce30ca2cadd761d4798a8b51e8246",
    "lab/F10":
        "e4e95130bc50f5a9ced6dace02bba8c562657ba5e89852843094932a592d295c",
    "lab/F19":
        "97ac71fe3b0c1c9f9201c950651b343284327951434c5e06e7a6bde46e9c9df7",
    "lab/F32-noise-seeded":
        "c5ae8477b3fe691724faeb9393594f204751633a95694b63501b0c38a613a683",
    "lab/F44@5":
        "7f1e5d3b7d31d46b86b87e4798888d00908b9a8bdb84c72cc7d231a62b3461ed",
    "lab/F5":
        "746552e8850004acb2c5ccfe33337369f20652cfaef3bf952775e00d44abf5ad",
    "lab/awjm:Ra":
        "d82eda18f6c54ac90c2f12d60b3fc8548093fed6341baef4c50430ce66015886",
    "lab/awjm:kerf":
        "0b8e657ae7609e193e70fcf793b7d560b1044b098fa7184bf566ed92640b8578",
    "lab/edm:MRR":
        "43ed9fe151b36948871e594a32c485e8bdfbc9dc028b7e62b602aa83b274ae23",
    "lab/edm:REWR":
        "cf99bb83ed4f0ef5ab47ed7275bb4e3cea452f3c37b49f196eff52d40fcf6d5b",
    "lab/edm:Ra":
        "121a15d6faa7674b562d808ddd7238e019dbfb344890d728438f665b901b5955",
    "lab/micro_drilling:Bh:0.5mm":
        "bffc06085a4f15ee87cd81dee149bd757bc20b9e9fe5d2365e92d4aa5cd3488e",
    "lab/micro_drilling:Bh:0.6mm":
        "ecac1eda4bb1c8541de8d1d462e11313ebe7e563f10d89f30c153c36e588218e",
    "lab/micro_drilling:Bh:0.8mm":
        "ae6397857db29f1b3cb65e1ee1dd33cdecf7f24b9eb4dcb97d01a54b80a3c3f4",
    "lab/micro_drilling:Bh:0.9mm":
        "4b919686583ce5f945811b20fae4d2ee155ab6df1438e9814cd742ee70348e8a",
    "lab/micro_drilling:Bt:0.5mm":
        "84d0beb68bd633082d1852f7ac2e524495c1a1ed609714b7c825a8091fdd3132",
    "lab/micro_drilling:Bt:0.6mm":
        "c8b075e034f6fb57560cfa2914fe3fcccbb568f2581471bee3e155e61c71c6fa",
    "lab/micro_drilling:Bt:0.8mm":
        "261b030219379434eebd3c9f210b213b784840abec845f1f2e678d75e5a3b22f",
    "lab/micro_drilling:Bt:0.9mm":
        "ce72151baaae152417945d9801212bb8d16824763f5f98c77937d62e677549f1",
    "lab/micro_milling:Mt:0.7mm":
        "440de645957daddac68deeffe9e7c252b5ee1d50ef1cd863b0cb92faff9bf6aa",
    "lab/micro_milling:Mt:1mm":
        "82050d7427790a02da142621bf9477b2f22a97612b7a16a5971a3f0b48e36cff",
    "lab/micro_milling:Ra:0.7mm":
        "ea01fc37af930fe0da91651eafe47817244d31de8a14cceb8ad8366fdec01f45",
    "lab/micro_milling:Ra:1mm":
        "7e21b786855f118463ca718a4ece4a4833abf7ae85b2a532ca1f29b3297d6d2b",
    "lab/micro_turning:Ra":
        "1c88f33a18a17ba7ed72e0f23d41d244a934c12877cbd0996ab698847bd4aa19",
    "lab/micro_turning:fb":
        "ca5ea8c9a39cfd0891a0de3fe0864e112435c6988a87e620bd6f59aae92ae26d",
    "lab/mql_turning:Fc":
        "51fbc1c1b5ea28b57b9d3f9685deac25726116d91ff67d5e8015967c52253dfc",
    "lab/mql_turning:L":
        "d013502bde2d6e413ef398164a3c7d25c08dbda65816dcafe787838c7043d1dd",
    "lab/mql_turning:Ra":
        "7265d9c6d0be681ac831575fdc6aad0b2cb21c5a24f6a4da0845dd0bfbcf29c2",
    "lab/mql_turning:VBmax":
        "180d10834743f1cf33bac38509b05016a8a0d23997f502f03d3dc71747fac362",
    "pso-37/F10":
        "a2d6e807325678cfc1056acf6c3168a99cd7322c87f8cfb45d1563a3a83aec3f",
    "pso-37/edm:MRR":
        "e520b962a2e468bb748c25e3303eb825000b42fb083ce7bce6a97b25e6bb857f",
    "pso/F10":
        "de39e7b5b35603aa73d78f14282ebf80835f411e5ddd665233f8879e141a5506",
    "pso/F19":
        "0d5dcedd3d458c8e241322a4698364b77e3f06d78c3bead557151d8f74df3629",
    "pso/edm:MRR":
        "c9215d49701672354e3b02b52221704915552994b4b164fbfa5c3b61ddff82ce",
    "random_search-37/F10":
        "6c054851e5b135a04f2c0d41122c28308ebcdfe92a253f746187d2380d23a7bb",
    "random_search-37/edm:MRR":
        "272ba5fb95dc3e1650d0d7401410cc137d26b21e2070592cd508f28235916009",
    "random_search/F10":
        "116c1339342b4c173297926174e6f77dd5024a8faf0319795e05ef35c3123233",
    "random_search/F19":
        "e6643d3b1dcf52b3cd4be45c644d3cad19d72c1e84144803ee414b2bd1782634",
    "random_search/edm:MRR":
        "9c08803daf601e08bd3614b84452fe71ed2440494e5ae8dcf6ca105dee05891c",
    "sa-37/F10":
        "a44048d69d1f09a5d12f6d2b2226665ac2d1ba0c3a9b2a904288b028db056c37",
    "sa-37/edm:MRR":
        "df402d30edb95c69e1eb2b96f9e7510976a3fecce5849f07cca632e0df3b4ba2",
    "sa/F10":
        "f13bbded68e6b4773eb284aaead3fd812c4c1e4b2b11f54ce6e5865000e7332f",
    "sa/F19":
        "25b8a54fdb0d903a84950750f9f35fccba342bf926f1ecb2b2d7ec7bfbddcb3e",
    "sa/edm:MRR":
        "0216980591f80ddd3050667759ce627289364b3ab60c1427ebb791e473090ced",
}


def test_golden_covers_every_case():
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_digest_is_unchanged(name, tmp_path):
    assert case_digest(name, tmp_path) == GOLDEN[name]
