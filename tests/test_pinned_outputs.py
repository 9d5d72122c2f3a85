"""Byte-identical outputs: the sha256 of the full stdout of cheap runs of
every verify suite, of the full default table51 and characterizations
runs, of analyze on three families and of both tables.

A refactor must leave every digest as it is.  A change that alters an
output on purpose updates its digest here and says why in CHANGES.md.
"""

import hashlib

import pytest

from forcekit.cli import main

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
