"""The decoder must reproduce the recorded decode corpus.

See ``decode_corpus.py`` for the cases and for how the corpus was made.
Decisions, CRC flags, list ranks, survivors and first errors must be
equal exactly.  Path metrics (``chosen_pm``, ``all_pm``) must agree to
``rtol = atol = dc.PM_TOL``: the decoder adds the penalties of an
all-frozen (rate-0) subtree as one closed-form sum over the subtree's
inputs instead of bit by bit at its leaves.  The two are equal in exact
arithmetic but round differently, so a metric may move in its last bits
(about 1e-16 relative); no decision may.  The ``sc`` cases compare no
metrics: they were recorded by a successive-cancellation rule that
reported 0, and are now decoded by the list decoder at L = 1.
"""

import numpy as np
import pytest

import decode_corpus as dc

PM_KEYS = ("chosen_pm", "all_pm")


@pytest.fixture(scope="module")
def corpus():
    with np.load(dc.CORPUS_PATH) as data:
        return dict(data)


@pytest.mark.parametrize("case", dc.CASES + dc.SC_CASES, ids=lambda case: dc.case_name(*case))
def test_decoder_reproduces_corpus(corpus, case):
    family = case[0]
    inputs = {key: corpus[f"{family}__input__{key}"]
              for key in ("decode", "genie", "genie_u")}
    name = dc.case_name(*case)
    for key, got in dc.run_case(*case, inputs).items():
        expected = corpus[f"{name}__{key}"]
        assert got.shape == expected.shape, f"{name}: {key} shape"
        if key in PM_KEYS and case[1] == "sc":
            continue
        if key in PM_KEYS:
            np.testing.assert_allclose(got, expected, rtol=dc.PM_TOL, atol=dc.PM_TOL,
                                       err_msg=f"{name}: {key} differs")
        else:
            assert np.array_equal(got, expected), f"{name}: {key} differs"


@pytest.mark.parametrize("index", range(len(dc.FAMILIES)), ids=lambda i: dc.FAMILIES[i][0])
def test_family_inputs_regenerate_the_stored_inputs(corpus, index):
    # The recorder's inputs come back byte for byte, so a re-recording decodes the same frames.
    family = dc.FAMILIES[index][0]
    for key, value in dc.family_inputs(index).items():
        expected = corpus[f"{family}__input__{key}"]
        assert value.dtype == expected.dtype and value.tobytes() == expected.tobytes(), key


def test_corpus_exercises_list_and_crc_selection(corpus):
    # A corpus where the CRC never rescues a lower-ranked path, or every
    # frame decodes cleanly, would not test list bookkeeping at all.
    ranks = np.concatenate([v for k, v in corpus.items() if k.endswith("__list_rank")])
    passes = np.concatenate([v for k, v in corpus.items() if k.endswith("__crc_pass")])
    firsts = np.concatenate([v for k, v in corpus.items() if k.endswith("__first_error")])
    assert (ranks > 0).sum() >= 10
    assert passes.any() and not passes.all()
    assert (firsts >= 0).any()
