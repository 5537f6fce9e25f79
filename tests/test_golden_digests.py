"""Golden digests of generated code and seeded traffic.

Code generation and traffic generation are pure functions of their inputs,
so their output can be pinned byte for byte.  The digests below are SHA-256
hashes of

* the pipeline-description source of every Table-1 program at every dgen
  optimisation level,
* the fused dRMT program source of both P4 samples,
* a 500-PHV trace from every program's own traffic generator, and
* a 500-packet :class:`~repro.traffic.PacketGenerator` trace per P4 sample.

A speed-up of the peephole pass or of the traffic generators must leave every
digest unchanged.  If a change alters generated output on purpose, regenerate
the table with ``PYTHONPATH=src python tests/test_golden_digests.py``.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import pytest

from repro import dgen
from repro.drmt import DrmtHardwareParams, PacketGenerator, generate_bundle
from repro.p4 import samples
from repro.programs import all_programs

TRACE_LENGTH = 500
TRAFFIC_SEED = 2020
DRMT_PROCESSORS = 4
P4_SAMPLES = {
    "simple_router": samples.SIMPLE_ROUTER,
    "telemetry_pipeline": samples.TELEMETRY_PIPELINE,
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _programs():
    return {program.name: program for program in all_programs()}


def description_digest(program_name: str, opt_level: int) -> str:
    program = _programs()[program_name]
    description = dgen.generate(
        program.pipeline_spec(), program.machine_code(), opt_level=opt_level
    )
    return _sha256(description.source)


def phv_trace_digest(program_name: str) -> str:
    generator = _programs()[program_name].traffic_generator(seed=TRAFFIC_SEED)
    return _sha256(repr(generator.generate(TRACE_LENGTH)))


def _bundle(sample: str):
    hardware = DrmtHardwareParams(num_processors=DRMT_PROCESSORS)
    return generate_bundle(P4_SAMPLES[sample], hardware, name=sample)


def fused_drmt_digest(sample: str) -> str:
    return _sha256(_bundle(sample).fused_program().source)


def packet_trace_digest(sample: str) -> str:
    generator = PacketGenerator(_bundle(sample).program, seed=TRAFFIC_SEED)
    return _sha256(repr(generator.generate(TRACE_LENGTH)))


def compute_digests() -> Dict[str, str]:
    """Every golden digest, keyed ``kind/name[/level]``."""
    digests: Dict[str, str] = {}
    for name in _programs():
        for level in dgen.OPT_LEVELS:
            digests[f"source/{name}/{level}"] = description_digest(name, level)
        digests[f"phvs/{name}"] = phv_trace_digest(name)
    for sample in P4_SAMPLES:
        digests[f"drmt_fused/{sample}"] = fused_drmt_digest(sample)
        digests[f"packets/{sample}"] = packet_trace_digest(sample)
    return digests


GOLDEN: Dict[str, str] = {
    "source/blue_decrease/0": "7b71f5e5d39f1350806139b4b0a1a6ec7f3e5f8498419d8d584e9f343095931a",
    "source/blue_decrease/1": "dcd79c208f388fb8bc214c510f7de515688d9d85381d3a6f476cd06968a7e18f",
    "source/blue_decrease/2": "00f84ecd5d1b8e9a2ac157902ad79577f722bb4332c581a23af57a5103d3beb5",
    "source/blue_decrease/3": "fbd1473f40dd9138628d93d94d2d8eeef2986324cefd441a948ddb6d8cc3b906",
    "phvs/blue_decrease": "4ecb24d99bec6b8728aa3eab190964a30a4c2e795fa2af1eb70f7166a9f2d5e2",
    "source/blue_increase/0": "60d29ae074e097819af43e3bd98585648a1c855c8472e59b1ee9e21922c03b40",
    "source/blue_increase/1": "3431d90be9fe80321025bac8c250eaba7b9054a90190f91e7c80c8e0154732c0",
    "source/blue_increase/2": "90ed7f2bbd83da50cb44adfbf10e76bc9225453a9ddd6fec2ccd3dc05db024c5",
    "source/blue_increase/3": "71649dcf91853e34305286d63200b74c5af38b5e78d6c4dfadf2ce34fa6b439a",
    "phvs/blue_increase": "4ecb24d99bec6b8728aa3eab190964a30a4c2e795fa2af1eb70f7166a9f2d5e2",
    "source/sampling/0": "ca77524ce9184ba524d418b8e918b8576acd33d05c5c583adc459811ae827e63",
    "source/sampling/1": "62d253f93a63b97d2173cc2142ba44c4bb80c7314e5045547dca49e7c91ccc77",
    "source/sampling/2": "7dca643304b10db50dcdaeef58f822557e97b010266ebc517edb84d1b8d22788",
    "source/sampling/3": "f5812558915a9cc709d22d3326079c9cd8fbbccc6de6090196eb28c08a4e72b1",
    "phvs/sampling": "2b83bd9cb2445bb5fdf18eae4b287c87cf349b7c42e813a67deb752d05718212",
    "source/marple_new_flow/0": "240873967d666a10823e5721c546bba55c683b2cfbe2274a1277fec9129bc4c5",
    "source/marple_new_flow/1": "3f435ef22eed10e363b1e92e9c0cf5ba42bff00decda994e626accac32386075",
    "source/marple_new_flow/2": "ffb62d039a0cfbcc3c7c38c32c7e3442f6d13369a95ca5fa79287081561c7505",
    "source/marple_new_flow/3": "6761f2a0a93bdce96b699d9b1b5e7da71903ca3502005b03fbdc757b821b22fc",
    "phvs/marple_new_flow": "c314f0abe423ff0a2c5693e57badad99fe34365e71ec41596d34f5dfb59a3101",
    "source/marple_tcp_nmo/0": "30c8e24faca6d65d857a4b77a5edd5db0710a124429ff7a2e0226243a5b8fa8f",
    "source/marple_tcp_nmo/1": "16f2942e14ae3ffb066c67f8d01f5c86ddc09720cb80abfdc460449deb08e377",
    "source/marple_tcp_nmo/2": "ed836f61cf8b4398774ee5ca06fdd946616c613117e8ef466f5ec4c5609e3c5a",
    "source/marple_tcp_nmo/3": "927ad2727251aea43f62a070f297a6ea60fbe5fc174eaf515ec5cde2f1502f22",
    "phvs/marple_tcp_nmo": "4ecb24d99bec6b8728aa3eab190964a30a4c2e795fa2af1eb70f7166a9f2d5e2",
    "source/snap_heavy_hitter/0": "f08bf012bf2b75dde90459d7dd412cf0247322aba504eb3ed2a4144e9b902635",
    "source/snap_heavy_hitter/1": "4f4d724a78fc7ded1838774ea60bcdcbf6cef4025ce2d716ef2307c3d33be6ea",
    "source/snap_heavy_hitter/2": "7148f8aa991ec5dcc0f19d3be4d22f351cd53d1fac7e2ecc4e2a8673324db116",
    "source/snap_heavy_hitter/3": "d754a82ceccf64749993e13a0933c4ae36d93a917f5e4de71469229d9b38a9fc",
    "phvs/snap_heavy_hitter": "e3d425b1939ea62a148c88471524a8ca919b891b04d5e23ed953c82308288c3a",
    "source/stateful_firewall/0": "6791a2fd90a1541b0844aee9962846ba6b77459416670040244535969c13304b",
    "source/stateful_firewall/1": "0b3e9aeaf27945ea64ae80e06af787dc39c592498224d81ac8b76854d90aac8e",
    "source/stateful_firewall/2": "1ed2840747c9151a710c884ccba734ec15d94bbb8cdd4a154cad20eeeb190399",
    "source/stateful_firewall/3": "964d92170f3ed43c4a6079242b49c59d9db9708c2da829259d4c0a7b3057e764",
    "phvs/stateful_firewall": "5a40589c515091f419505ae4c0f709b6ef89d41e1c9b76f019a2dd463ea8db79",
    "source/flowlets/0": "58cfaecf080b0ce58412964852411466ba9b10bdbfaca97a82b707502f5588ca",
    "source/flowlets/1": "38cd5a5e582c5b867aebb3987290b5ead8455a56aa05472669db7c4cab22b868",
    "source/flowlets/2": "69afef0f0b1b76571a23cbd74ffe3146719f0cb6425b98e8099930aff243f303",
    "source/flowlets/3": "69be863086cf16ac73c7080d2b9c9857d3a4cb89df491e87d1b71cde6553b640",
    "phvs/flowlets": "8b4470ab5648be5163500550cf51610d1b9d2cb6f5806e60644bf3d4c6d191a2",
    "source/learn_filter/0": "6cc07174f4f19cac679004a1afc3786241edcfae5db7a650e15fe8699c48852a",
    "source/learn_filter/1": "bf8e8d581da176854f249b0169052840d94e14d4ac0e71b3467de320e4e6b567",
    "source/learn_filter/2": "576c3f8865221ef3db7e84e1961577383235e80344d17a58550cc2632f9ba03e",
    "source/learn_filter/3": "73f1790f5eaf31b26d78db9074facb27d03c1b904700d69bb60e3bca95c8b7c5",
    "phvs/learn_filter": "2f425f0f69032dd8e002e7853e857f300616e1b540f7fd332688c4886be674b7",
    "source/rcp/0": "50d94d1f3244da900e3784ab9db471246edf02e733df5d03945f5c1f804d0626",
    "source/rcp/1": "9c769b70657e4ccc76ff2db152b8d46cc7bc2dee88805903485e17aa18147e71",
    "source/rcp/2": "b35da09242363a51cbaf70e7cdb51c3b84a931e215837f3e485052d576b03ba7",
    "source/rcp/3": "d15be2fcb4b6f685f2cf3cf55902d3045c18dff7e689a81b2f6c739df58cb7f4",
    "phvs/rcp": "2bbff3aa5b38a964ea0f9f2247ab56ec7b42f3cea1dc6953bd54116e08cd5ce1",
    "source/conga/0": "88daccbeb606877b62f608a85e43106114e1987f5d35e069ed07cdfe6984b65a",
    "source/conga/1": "9edc7b2569389df5f79387bd64744d6fbc94d332ae77aa6f2897343761eeb10b",
    "source/conga/2": "5841f2caa8a39106afc3c9d5dccfc8ba4baead1f5aca4851204b6b55d5e86a97",
    "source/conga/3": "a45c25fc101429802ce1f34156b8a23af43723f7afa6049c784f04cd852df4f7",
    "phvs/conga": "e32ef87533230b51f1e7142d218c9aac33ebf964e8ac54811b762754a9125738",
    "source/spam_detection/0": "160b74e032732c4d63822a96d6a61618298cf8c18cd450d6c87cd729b7cb130a",
    "source/spam_detection/1": "1df61ebb93cbda5d5fafefece506cb540387da020c3bf96697f64a23699da36d",
    "source/spam_detection/2": "5021525b3c6078b06c354fbb7d019fa47e5fb2986fbe5fafe50f3dc63240fbdb",
    "source/spam_detection/3": "17f8bba08ddfb9a0316df72a8ce011f590273ac741c3de99657f6f34670e300e",
    "phvs/spam_detection": "0a369b39dea5e742a837e577156182af646a1af3785022218171a4c64d9e8ae6",
    "drmt_fused/simple_router": "723f87cada607de81239f86f0599d5caec79b0acfc517eba4ac34502490319b4",
    "packets/simple_router": "35e68ca7688ce366b66e201d0a6c93b7d731171565e4c18247ff5e3f1192e2e6",
    "drmt_fused/telemetry_pipeline": "00eaf91e4a7dd8caa39ca181b4a3f268f1343c82e519a26b0d2f9e820bf94933",
    "packets/telemetry_pipeline": "24009e878348c2ce00c1b52de38eff6fe11114c961ea635bd8a7c4544fae5f38",
}


def _golden(prefix: str):
    return sorted(key for key in GOLDEN if key.startswith(prefix))


def test_golden_table_covers_every_case():
    names = {program.name for program in all_programs()}
    assert len(names) == 12
    assert _golden("source/") == sorted(
        f"source/{name}/{level}" for name in names for level in dgen.OPT_LEVELS
    )
    assert _golden("phvs/") == sorted(f"phvs/{name}" for name in names)
    assert _golden("drmt_fused/") == sorted(f"drmt_fused/{s}" for s in P4_SAMPLES)
    assert _golden("packets/") == sorted(f"packets/{s}" for s in P4_SAMPLES)


@pytest.mark.parametrize("key", _golden("source/"))
def test_description_source_is_unchanged(key):
    _kind, name, level = key.split("/")
    assert description_digest(name, int(level)) == GOLDEN[key]


@pytest.mark.parametrize("key", _golden("phvs/"))
def test_phv_trace_is_unchanged(key):
    assert phv_trace_digest(key.split("/")[1]) == GOLDEN[key]


@pytest.mark.parametrize("key", _golden("drmt_fused/"))
def test_fused_drmt_source_is_unchanged(key):
    assert fused_drmt_digest(key.split("/")[1]) == GOLDEN[key]


@pytest.mark.parametrize("key", _golden("packets/"))
def test_packet_trace_is_unchanged(key):
    assert packet_trace_digest(key.split("/")[1]) == GOLDEN[key]


if __name__ == "__main__":
    for digest_key, digest in compute_digests().items():
        print(f'    "{digest_key}": "{digest}",')
