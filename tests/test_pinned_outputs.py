"""Byte-identical outputs: the sha256 of the full stdout of cheap runs of
every verify suite, of the full default table51, characterizations and
exhaustive6 runs, of analyze on three families and of every rule and
parameter request shape on hypercube:3, and of both tables; and of the
reports that ``_characterize`` gives on small graphs.

A refactor must leave every digest as it is.  A change that alters an
output on purpose updates its digest here and says why in CHANGES.md.
"""

import hashlib
import json

import pytest

from forcekit.cli import main
from forcekit.graphs import build_family
from forcekit.suites import (
    _characterize,
    _edge_mask_classes,
    default_family_specs,
    graph_from_edge_mask,
)

DIGESTS = [
    (("verify", "--suite", "table1", "--max-n", "8", "--json"),
     "65c26294baf199c885a7b762feefb0e656ce024d6f1c88796a556574be6f8606"),
    (("verify", "--suite", "table2", "--max-n", "8", "--json"),
     "1f06cc2d44c6094960071e0a574f4d1b257e8cae0fe5d7d0833ec47774160ad6"),
    (("verify", "--suite", "table51", "--max-n", "8", "--json"),
     "aaad5e6ff626ae1e6846167ea8d9bdeca418b4dc2528ce1e1ecabf583a8a36c1"),
    (("verify", "--suite", "characterizations", "--max-n", "8", "--json"),
     "3d8487dce0a1a966fbf3c1b31bdafb85d7eaf0e6f9aac80ce98fc16a8cbb87ee"),
    (("verify", "--suite", "table51", "--json"),
     "7f964cb77197befb6305e7d7f77bf9dee4c74eadf3c39bf5ad326ce60b21771b"),
    (("verify", "--suite", "characterizations", "--json"),
     "2c7bc3d22b2c2a5a73f99e4dcbe8dc7c763f2dc93fa209742a901541e9fb0b82"),
    (("verify", "--suite", "exhaustive6", "--max-n", "5", "--json"),
     "6af345951e7d2d34503d53d9c51e6bf49317231f8323b5776a295288566a7e1d"),
    (("verify", "--suite", "exhaustive6", "--json"),
     "c9c4bc4397c5b6e832bed448edb6c681d27976e834bffe5d3f3ecb665324f5a8"),
    (("verify", "--suite", "disconnected", "--seed", "0", "--json"),
     "073f313fa08d661d716967ac8c6125a9cf295b0e5d5d93a1b412f70232bc27f5"),
    (("verify", "--suite", "linalg", "--seed", "7", "--max-n", "6", "--json"),
     "2f17f1370a97fd29e5c72410a5731073a99fa0922ddd3e4c6f8dc93cbce4d3c5"),
    (("analyze", "--family", "wheel:7", "--json"),
     "31f715f4c9667868d50efe15540bfd50dc57876b40f624792386f3e4ac061e5e"),
    (("analyze", "--family", "cycle:3+path:2", "--json"),
     "ed1b439bf15966cac4ad111a5e8d647e0493d137569e0b5e81df199f35174eed"),
    (("analyze", "--family", "halfgraph:4", "--json"),
     "263257928ea9c6427020816daafb7c61994de59090a0bf5b06fe0b49fb0bf872"),
    (("analyze", "--family", "hypercube:3", "--rule", "standard", "--params",
      "Z", "--json"),
     "47670864355ed5aca1b93dad2f403ee34c0258d15aa7415973d7731c4e91f7e0"),
    (("analyze", "--family", "hypercube:3", "--rule", "standard", "--params",
      "F", "--json"),
     "d5119624b7bb0e099af27aa3a64b422b6b44a8e4c2e9c54f7b34876226feba92"),
    (("analyze", "--family", "hypercube:3", "--rule", "standard", "--params",
      "F,Z", "--json"),
     "32034edf94e1b8f509bdf6391e68e81a04c9314e319186b04d46e02707510a1d"),
    (("analyze", "--family", "hypercube:3", "--rule", "psd", "--params",
      "Z", "--json"),
     "f08af31acf76bd4c8fd731caa2068de16d605f4046a95077e826ba2dfc7178da"),
    (("analyze", "--family", "hypercube:3", "--rule", "psd", "--params",
      "F", "--json"),
     "2af57c459b26532845663df01a9e100d311e2a44f6f1074ae766298c106817f8"),
    (("analyze", "--family", "hypercube:3", "--rule", "psd", "--params",
      "F,Z", "--json"),
     "5406694d2e09965d2b6bef9c9d9a1146379be7ed3ee0e9d41afbb76b710a2a2c"),
    (("analyze", "--family", "hypercube:3", "--rule", "both", "--params",
      "Z", "--json"),
     "e5ba2d8fde01efa0171d218ccf9e9ce53a94758281edadfe2dc0819fc0f2926f"),
    (("analyze", "--family", "hypercube:3", "--rule", "both", "--params",
      "F", "--json"),
     "73298bf1394585d76ab967a00131b4d919a68f960283e2a1309c2f0c82149055"),
    (("analyze", "--family", "hypercube:3", "--rule", "both", "--params",
      "F,Z", "--json"),
     "46383958ac7a5dd8d1707aa8b3cfe9eee2d1e76a8c12b49a445b7aa1421bad50"),
    (("analyze", "--family", "hypercube:3", "--rule", "both", "--params",
      "F,Z"),
     "29f1812bfd1b52b3c57ce1d4def45be3a90f3ee44f0550b267a090c26cbf1bc5"),
    (("table", "--which", "1"),
     "7c685e29af8f7cf395022a317e477e125ab0b53624cbedf3b743bf11bc493aab"),
    (("table", "--which", "2"),
     "1b2c270c60031fcad09ee48a6e102229ba47a6dc36ae6156e614abf384b41bdd"),
]


@pytest.mark.parametrize("argv,digest", DIGESTS,
                         ids=[" ".join(argv) for argv, _ in DIGESTS])
def test_stdout_digest(capsys, argv, digest):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_characterize_reports_digest():
    # every check's verdict on each class of order <= 6, by its least edge
    # mask, and on each default instance of order <= 8
    cases = [(f"n={n} edges={mask:#x}", graph_from_edge_mask(n, mask))
             for n in range(1, 7) for mask, _ in _edge_mask_classes(n)]
    cases += [(spec.label(), build_family(spec))
              for spec in default_family_specs(8)]
    rows = [[name, [[r.theorem, r.expected, r.observed, r.passed]
                    for r in _characterize(g, name)[1]]] for name, g in cases]
    assert (len(cases), sum(len(reports) for _, reports in rows)) == (278, 2914)
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == \
        "498d342a7e8a2393087868d50c2fe146f9443e20d87c784b008cfb878e46bac1"
