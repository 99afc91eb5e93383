"""The decoder must reproduce the recorded decode corpus exactly.

See ``decode_corpus.py`` for the cases and for how the corpus was made.
Equality is exact, path metrics included: a change to list bookkeeping
moves no arithmetic, so it may not move a single bit of any output.
"""

import numpy as np
import pytest

import decode_corpus as dc


@pytest.fixture(scope="module")
def corpus():
    with np.load(dc.CORPUS_PATH) as data:
        return dict(data)


@pytest.mark.parametrize("case", dc.CASES, ids=lambda case: dc.case_name(*case))
def test_decoder_reproduces_corpus(corpus, case):
    family = case[0]
    inputs = {key: corpus[f"{family}__input__{key}"]
              for key in ("decode", "genie", "genie_u")}
    name = dc.case_name(*case)
    for key, got in dc.run_case(*case, inputs).items():
        expected = corpus[f"{name}__{key}"]
        assert got.shape == expected.shape, f"{name}: {key} shape"
        assert np.array_equal(got, expected), f"{name}: {key} differs"


def test_corpus_exercises_list_and_crc_selection(corpus):
    # A corpus where the CRC never rescues a lower-ranked path, or every
    # frame decodes cleanly, would not test list bookkeeping at all.
    ranks = np.concatenate([v for k, v in corpus.items() if k.endswith("__list_rank")])
    passes = np.concatenate([v for k, v in corpus.items() if k.endswith("__crc_pass")])
    firsts = np.concatenate([v for k, v in corpus.items() if k.endswith("__first_error")])
    assert (ranks > 0).sum() >= 10
    assert passes.any() and not passes.all()
    assert (firsts >= 0).any()
