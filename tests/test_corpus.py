"""The corpus (`corpus.py`, `corpus.json`): every output byte it pins is reproduced."""

import corpus


def test_corpus_lists_every_command_in_order():
    assert list(corpus.load()) == corpus.commands()


def test_every_output_matches_its_corpus_hash():
    # about 936 commands in 2-3 s; `python3 tests/corpus.py` says what moved
    pinned = corpus.load()
    moved = [argv for argv in corpus.commands() if corpus.digest(argv) != pinned[argv]]
    assert not moved, f"{len(moved)} outputs moved, the first: {moved[:5]}"
