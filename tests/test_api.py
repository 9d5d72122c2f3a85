"""The public names that ``forcekit`` exports.

The README's "Library use" block, which imports some of them, is run and
its printed values checked by
``test_search.py::test_readme_library_block_prints_what_its_comments_say``.
"""

import forcekit


def test_every_public_name_resolves_once():
    names = forcekit.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if getattr(forcekit, n, None) is None] == []
