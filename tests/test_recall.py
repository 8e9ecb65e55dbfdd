import concurrent.futures
import math
import random
import sys
import threading
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphquest import recall
from graphquest.recall import (
    RecallConfig,
    RecallError,
    RemoteEmbeddingScorer,
    TrigramScorer,
    top_k,
)

from http_fakes import Reply, scripted
from oracles import oracle_top_k, oracle_trigram_score

QUESTION = "Who is in control of the place where the movie takes place?"


# few letters so that trigrams repeat and collide; letters whose
# lower-case form differs in length ("İ") or is not a plain fold ("ẞ", "Σ")
_FOLDING = "abAB İıßẞΣσς-"
_PAD = st.text(alphabet=" \t\n\u00a0\u3000", max_size=3)
_BODY = st.text(alphabet=_FOLDING, min_size=1, max_size=12) | \
    st.text(min_size=1, max_size=40)
_TEXTS = st.builds(lambda head, body, tail: head + body + tail,
                   _PAD, _BODY, _PAD).filter(lambda s: s.strip())
# 2,923 distinct caseless letters: 2,921 trigrams, each once. On glibc
# `2921 ** 0.5 != math.sqrt(2921)`, so only a norm taken with
# `math.sqrt` gives the scorer's float for this label.
_LONG_LABEL = "".join(map(chr, range(0x4E00, 0x4E00 + 2923)))
# few ids and labels, so that both repeat; "zzzzzz" shares no trigram
# with any of the fixed labels, so every score ties at zero
# labels with fewer than three characters once stripped, so no trigrams
_SHORT = st.builds(lambda head, body, tail: head + body + tail,
                   _PAD, st.text(alphabet=_FOLDING, min_size=1, max_size=2),
                   _PAD).filter(lambda s: s.strip())
# labels that repeat a trigram, so their norm comes from their counts
_REPEATING = st.builds(lambda unit, times: unit * times,
                       st.text(alphabet=_FOLDING, min_size=1, max_size=3)
                       .filter(lambda s: s.strip()),
                       st.integers(3, 6))
_IDS = st.sampled_from(["m.1", "m.2", "m.3"]) | st.text(max_size=4)
_LABELS = st.sampled_from(["aaa", "bbb", "Panama City", " panama city"]) \
    | _TEXTS


@st.composite
def _batches(draw):
    """Two questions and a shuffled batch holding each question as it is
    and with its case changed, and one of its labels twice."""
    questions = draw(st.lists(_TEXTS | _SHORT | _REPEATING, min_size=2,
                              max_size=2,
                              unique_by=lambda s: s.strip().lower()))
    labels = draw(st.lists(_TEXTS | _SHORT | _REPEATING, min_size=1,
                           max_size=10))
    matches = [text for q in questions for text in (q, q.swapcase())]
    repeated = draw(st.sampled_from(labels))
    return tuple(questions), draw(st.permutations(labels + matches
                                                  + [repeated]))


class TestTrigramScorer:
    def test_exact_match_scores_one(self):
        scorer = TrigramScorer()
        assert scorer.score("Panama", "Panama") == 1.0
        assert scorer.score("panama", "PANAMA") == 1.0  # case-insensitive
        assert scorer.score(" Panama ", "Panama") == 1.0  # whitespace trimmed

    def test_disjoint_text_scores_zero(self):
        assert TrigramScorer().score("abcdef", "uvwxyz") == 0.0

    def test_too_short_for_trigrams_scores_zero(self):
        # frozen: under 3 characters there are no trigrams to compare
        assert TrigramScorer().score("ab", "abcdef") == 0.0
        assert TrigramScorer().score("a", "b") == 0.0

    def test_empty_text_is_an_error(self):
        scorer = TrigramScorer()
        with pytest.raises(RecallError):
            scorer.score("", "label")
        with pytest.raises(RecallError):
            scorer.score("question", "   ")

    def test_known_value(self):
        # frozen: "aaab" vs "aaa" -> grams {aaa:1, aab:1} vs {aaa:1};
        # cosine = 1 / (sqrt(2) * 1)
        got = TrigramScorer().score("aaab", "aaa")
        assert got == pytest.approx(1 / 2 ** 0.5)

    def test_score_is_symmetric_under_swap(self):
        scorer = TrigramScorer()
        assert scorer.score("panama city", "city of panama") == \
            pytest.approx(scorer.score("city of panama", "panama city"))

    @given(_TEXTS, st.lists(_TEXTS | _SHORT, max_size=6),
           st.sampled_from(["", " ", " \t　"]),
           st.lists(_TEXTS | _SHORT, max_size=6), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_a_blank_label_raises_at_its_position(self, question, before,
                                                  blank, after, warm):
        scorer = TrigramScorer()
        if warm:
            scorer.scores("warm up", before + after)
        with pytest.raises(RecallError):
            scorer.scores(question, before + [blank] + after)
        with pytest.raises(RecallError):
            scorer.score(question, blank)

    @pytest.mark.parametrize("question, label", [
        ("", "label"), ("   ", "label"), ("question", ""),
        ("question", " \t　"), (" ", " "),
    ])
    def test_blank_text_is_an_error_on_every_call(self, question, label):
        scorer = TrigramScorer()
        scorer.score("question", "label")  # the non-blank side is cached
        for _ in range(3):
            with pytest.raises(RecallError):
                scorer.score(question, label)

    def test_each_batch_index_is_built_once(self, monkeypatch):
        built = []
        index = recall._BatchIndex

        def counting(labels):
            built.append(labels)
            return index(labels)

        monkeypatch.setattr(recall, "_BatchIndex", counting)
        scorer = TrigramScorer()
        hubs = [[(f"m.{hub}.{i}", f"Candidate label {i} of hub {hub}")
                 for i in range(200)] for hub in range(2)]
        questions = ["Which of two hundred candidates is closest?",
                     "Which candidate label ends in 7?"]
        kept = [top_k(question, candidates, 5, scorer)
                for question in questions for candidates in hubs]
        # the second question finds both batches cached, by value: a new
        # list of the same labels is the same batch
        assert [list(labels) for labels in built] == \
            [[label for _, label in candidates] for candidates in hubs]
        monkeypatch.undo()
        assert kept == [top_k(question, candidates, 5)
                        for question in questions for candidates in hubs]

    LABELS = 20_000

    def test_a_cached_batch_stays_small(self):
        # labels shaped like a generated hub's members; each trigram of the
        # batch is stored once, each position once per occurrence
        adjectives = ("Northern", "Silver", "Old", "Upper")
        nouns = ("River", "Harbor", "Valley", "Castle", "Province")
        labels = [f"{adjectives[i % 4]} {nouns[i % 5]} {i}"
                  for i in range(self.LABELS)]
        scorer = TrigramScorer()
        scorer.score(QUESTION, "warm up the question's profile")
        already = tracemalloc.is_tracing()
        if not already:
            tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        scorer.scores(QUESTION, labels)
        retained = tracemalloc.get_traced_memory()[0] - before
        if not already:
            tracemalloc.stop()
        assert retained / self.LABELS < 400

    @given(_batches())
    @example(((" İstanbul ", "ßẞ Σσς"),
              ["i̇stanbul", "ISTANBUL", " İstanbul ", "İSTANBUL", "ab", "İ",
               "STRASSE", "ßẞ σσς", "ßẞ Σσς", "ẞẞẞ", "ßßßß", "ab", "İ"]))
    @example((("ab", "aaab abab"),
              ["AB", "ab", " a", "aaaaaa", "ababab", "aaab abab",
               "AAAB ABAB", "aaaaaa"]))
    @example(((" Panama ",),
              ["panama", "PANAMA CITY", " Panama City ", "ab", "Pa"]))
    @example((("ab",), ["AB", "abc", "b"]))
    @example((("İstanbul",),
              ["i̇stanbul", "istanbul", "ISTANBUL", "Straße"]))
    @example((("Straße",), ["STRASSE", "strasse", "STRAẞE"]))
    # labels that repeat a trigram the question shares, so the norm from
    # the label's counts is checked on every run, not only when a draw
    # happens to repeat one
    @example((("aaab abcabc ababa ßßß",),
              ["aaaaaa", "abcabcabc", " Ababab ", "ßßßß"]))
    @example((("warm up", "aaab abcabc", "ßßß abab"),
              ["aaaaaa", "abcabcabc", " Ababab ", "ßßßß", "aa", "aaaaaa"]))
    @example((("Panama City", " panama city ", "ab"),
              ["PANAMA CITY", "Panama City", " panama city", "ab", "P",
               "AB"]))
    @settings(max_examples=300, deadline=None)
    def test_a_batch_scores_as_the_oracle_cold_and_cached(self, case):
        # every score equals the oracle's bit for bit, because top_k breaks
        # ties on exact floats: the first question builds the batch's
        # index, the others and the first again read it, and each label
        # scored on its own agrees too
        questions, labels = case
        scorer = TrigramScorer()
        for question in (*questions, questions[0]):
            expected = [oracle_trigram_score(question, label).hex()
                        for label in labels]
            assert [s.hex() for s in scorer.scores(question, labels)] == \
                expected
            assert [scorer.score(question, label).hex()
                    for label in labels] == expected
            assert scorer.scores(question, []) == []
        assert list(scorer._indexes) == [tuple(labels), ()]

    def test_a_shared_scorer_scores_as_the_inline_one(self):
        # the sharing contract of run_eval(parallelism=N) and of cmd_eval's
        # variants: one planner's scorer serves every thread
        questions = [QUESTION, "Which label is closest?", "abab abab"]
        labels = [f"Label {i % 150} of {'ab' * (i % 4)}" for i in range(600)]
        batches = [labels[start:start + 100] for start in range(0, 600, 100)]
        expected = {(q, label): TrigramScorer().score(q, label).hex()
                    for q in questions for label in labels}
        shared = TrigramScorer()
        barrier = threading.Barrier(8)

        def work(offset):
            barrier.wait(timeout=30)
            got = {}
            # each thread starts at a different batch, so several build or
            # read one batch's index at once
            for i in range(len(batches)):
                batch = batches[(i + offset) % len(batches)]
                for q in questions:
                    got.update(((q, label), score.hex()) for label, score
                               in zip(batch, shared.scores(q, batch)))
            return got

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                results = list(pool.map(work, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            assert got == expected
        # the labels repeat every 300, so there are three distinct batches;
        # a race may build one's index twice, but keeps one
        assert len(shared._indexes) == len(set(map(tuple, batches))) == 3

    @given(st.text(min_size=3, max_size=40).filter(lambda s: s.strip()),
           st.text(min_size=3, max_size=40).filter(lambda s: s.strip()))
    @settings(max_examples=150, deadline=None)
    def test_bounded_zero_to_one(self, question, label):
        score = TrigramScorer().score(question, label)
        assert 0.0 <= score <= 1.0 + 1e-12


class TestTopK:
    CANDIDATES = [
        ("m.0fsmy2", "Panama City"),
        ("m.0kz1h", "Panamanian balboa"),
        ("m.06nm1", "Spanish Language"),
        ("m.0bhtf2", "Juan Carlos Varela"),
        ("m.02j71", "Central America"),
    ]

    def test_keeps_k_best(self):
        kept = top_k(QUESTION, self.CANDIDATES, 2)
        assert len(kept) == 2
        assert kept[0].score >= kept[1].score

    def test_matches_independent_ranking(self):
        kept = top_k(QUESTION, self.CANDIDATES, 3)
        expected = oracle_top_k(QUESTION, self.CANDIDATES, 3)
        assert [(c.entity, c.label) for c in kept] == \
            [(e, l) for e, l, _ in expected]
        for ours, (_, _, score) in zip(kept, expected):
            assert ours.score == pytest.approx(score)

    def test_order_is_input_independent(self):
        rng = random.Random(7)
        baseline = top_k(QUESTION, self.CANDIDATES, len(self.CANDIDATES))
        for _ in range(10):
            shuffled = self.CANDIDATES[:]
            rng.shuffle(shuffled)
            again = top_k(QUESTION, shuffled, len(shuffled))
            assert again == baseline

    def test_ties_break_by_label_then_id(self):
        # all-zero scores force the lexicographic tie-breakers
        candidates = [("m.02", "bbb"), ("m.01", "bbb"), ("m.03", "aaa")]
        kept = top_k("zzzzzz", candidates, 3)
        assert [(c.entity, c.label) for c in kept] == \
            [("m.03", "aaa"), ("m.01", "bbb"), ("m.02", "bbb")]

    def test_question_trigrams_built_once(self, monkeypatch):
        built = []
        trigrams = recall._trigrams

        def counting(text):
            built.append(text)
            return trigrams(text)

        monkeypatch.setattr(recall, "_trigrams", counting)
        recall._question_trigrams.cache_clear()
        question = "Which of two hundred candidates is closest?"
        candidates = [(f"m.{i}", f"Candidate label {i}") for i in range(200)]
        top_k(question, candidates, 5)
        # the batch looks the question's profile up once and builds it;
        # no label asks for it
        info = recall._question_trigrams.cache_info()
        assert (info.misses, info.hits) == (1, 0)
        assert built.count(question.lower()) == 1
        assert len(built) <= 201  # at most one per label, one question

    def test_an_empty_batch_with_a_blank_question_keeps_nothing(self):
        for question in ("", "  \t"):
            assert top_k(question, [], 3) == []
            assert top_k(question, [], 3, TrigramScorer()) == []

    def test_a_blank_question_raises_on_a_non_empty_batch(self):
        with pytest.raises(RecallError):
            top_k(" ", [("m.1", "Panama")], 3)

    @given(st.sampled_from([QUESTION, "zzzzzz"]) | _TEXTS,
           st.lists(st.tuples(_IDS, _LABELS | _SHORT | _REPEATING),
                    min_size=1, max_size=12),
           st.integers(1, 14))
    @example("zzzzzz", [("m.2", "bbb"), ("m.1", "bbb"), ("m.3", "aaa")], 2)
    @settings(max_examples=150, deadline=None)
    def test_a_scorer_with_only_score_keeps_the_same(self, question,
                                                     candidates, k):
        class ScoreOnly:
            def __init__(self):
                self.asked = []

            def score(self, question, label):
                self.asked.append(label)
                return TrigramScorer().score(question, label)

        only = ScoreOnly()
        kept = top_k(question, candidates, k, only)
        # asked once per distinct stripped label, in first-seen order
        assert only.asked == list(dict.fromkeys(
            label.strip() for _, label in candidates))
        assert [(c.entity, c.label, c.score.hex()) for c in kept] == \
            [(c.entity, c.label, c.score.hex())
             for c in top_k(question, candidates, k, TrigramScorer())]

    @given(st.sampled_from([QUESTION, "zzzzzz"]) | _TEXTS,
           st.lists(st.tuples(_IDS, _LABELS), min_size=1, max_size=12))
    @example("zzzzzz", [("m.2", "bbb"), ("m.1", "bbb"), ("m.3", "aaa"),
                        ("m.1", "bbb"), ("m.1", "aaa")])
    @example(QUESTION, [("m.1", "Panama City"), ("m.1", " panama city"),
                        ("m.2", "Panama City"), ("m.2", "abcabcabc")])
    @example(_LONG_LABEL[:5], [("m.1", _LONG_LABEL), ("m.2", "Panama City")])
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_for_every_k(self, question, candidates):
        for k in range(1, len(candidates) + 3):
            kept = top_k(question, candidates, k)
            expected = oracle_top_k(question, candidates, k)
            assert [(c.entity, c.label, c.score.hex()) for c in kept] == \
                [(e, l, score.hex()) for e, l, score in expected]

    def test_a_waiting_scorer_gets_each_stripped_label_once(self):
        asked = []

        class Waiting:
            waits_on_network = True

            def score(self, question, label):
                asked.append(label)
                return TrigramScorer().score(question, label)

        candidates = [("m.1", "Panama City"), ("m.2", " Panama City "),
                      ("m.3", "Panama City"), ("m.4", "Colón")]
        kept = top_k(QUESTION, candidates, 4, Waiting())
        assert sorted(asked) == ["Colón", "Panama City"]
        assert kept == top_k(QUESTION, candidates, 4)
        assert top_k(QUESTION, [], 4, Waiting()) == []

    def test_k_larger_than_pool_keeps_everything(self):
        assert len(top_k(QUESTION, self.CANDIDATES, 100)) == \
            len(self.CANDIDATES)

    def test_k_below_one_rejected(self):
        with pytest.raises(RecallError):
            top_k(QUESTION, self.CANDIDATES, 0)

    def test_defaults(self):
        config = RecallConfig()
        assert config.threshold == 30
        assert config.k == 25

    def test_config_rejects_k_below_one(self):
        RecallConfig(k=1)
        with pytest.raises(RecallError):
            RecallConfig(k=0)

    def test_config_rejects_a_negative_threshold(self):
        RecallConfig(threshold=0)
        with pytest.raises(RecallError, match="threshold must be >= 0"):
            RecallConfig(threshold=-1)


def embedding(vector):
    return Reply(200, {"data": [{"embedding": vector}]})


def make_scorer(outcomes, **kwargs):
    return scripted(RemoteEmbeddingScorer, "http://embed.invalid/v1",
                    outcomes, **kwargs)


class TestRemoteScorer:
    def test_cosine_of_served_vectors(self):
        scorer, session, _ = make_scorer([embedding([1.0, 0.0]),
                                          embedding([0.0, 1.0])])
        assert scorer.score("question", "label") == pytest.approx(0.0)
        assert session.requests[0]["timeout"] == 30.0
        scorer, _, _ = make_scorer([embedding([1.0, 1.0]),
                                    embedding([1.0, 1.0])])
        assert scorer.score("same", "text") == pytest.approx(1.0)

    def test_embeddings_cached_per_text(self):
        scorer, session, _ = make_scorer([embedding([1.0, 0.0]),
                                          embedding([0.5, 0.5])])
        scorer.score("q", "label-a")
        scorer.score("q", "label-a")  # both texts already cached
        assert len(session.requests) == 2
        assert session.requests[0]["json"] == {"input": ["q"]}

    def test_model_included_when_configured(self):
        scorer, session, _ = make_scorer([embedding([1.0]), embedding([1.0])],
                                         model="embedder-1")
        scorer.score("q", "c")
        assert session.requests[0]["json"]["model"] == "embedder-1"

    def test_malformed_payload(self):
        scorer, _, _ = make_scorer([Reply(200, {"data": []})])
        with pytest.raises(RecallError):
            scorer.score("q", "c")

    @pytest.mark.parametrize("vector", [
        pytest.param("123", id="a-string"),
        pytest.param([1.0, "2"], id="a-string-value"),
        pytest.param([1.0, True], id="a-bool-value"),
        pytest.param([1.0, math.nan], id="nan"),
        pytest.param([math.inf, 1.0], id="infinite"),
        pytest.param([10 ** 400], id="too-large"),
        pytest.param([], id="empty"),
        pytest.param([0.0, 0.0], id="zero"),
        pytest.param([1e-200, 0.0], id="squares-underflow"),
    ])
    def test_embedding_of_other_than_finite_numbers_is_malformed(self,
                                                                 vector):
        scorer, _, _ = make_scorer([embedding(vector)])
        with pytest.raises(RecallError, match="malformed embedding"):
            scorer.score("q", "c")

    def test_a_norm_that_overflows_is_an_error_in_any_order(self):
        # 1e200 squares to infinity: the question's norm overflows, its
        # dot with m.a too, and cosine read nan for m.a and 0.0 for m.c,
        # so top_k kept a different candidate for each input order
        vectors = {"q": [1e200, 1.0], "A": [1e200, 0.0], "B": [0.0, 1.0],
                   "C": [1.0, 1.0]}

        class Session:
            def post(self, url, *, json, timeout):
                return embedding(vectors[json["input"][0]])

        candidates = [("m.a", "A"), ("m.b", "B"), ("m.c", "C")]
        for order in (candidates, candidates[::-1]):
            scorer = RemoteEmbeddingScorer("http://embed.invalid/v1",
                                           session=Session(),
                                           sleep=lambda _: None)
            with pytest.raises(RecallError, match="norm overflows"):
                top_k("q", order, 1, scorer)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False),
                 min_size=n, max_size=n), min_size=2, max_size=2)))
    @example([[1e200, 1.0], [1.0, 1.0]])
    @example([[1e154, 1e154], [1.0, 1.0]])
    @example([[1.0, 1.0], [1e-200, 0.0]])
    # the smallest nonzero norms: their product does not underflow
    @example([[2.3e-162], [2.3e-162]])
    def test_every_score_is_finite_or_an_error(self, vectors):
        left, right = vectors
        scorer, _, _ = make_scorer([embedding(left), embedding(right)])
        norms = [math.sqrt(sum(v * v for v in vector)) for vector in vectors]
        norm = norms[0] * norms[1]
        if 0.0 in norms:
            # no direction: cosine would read a false 0.0
            with pytest.raises(RecallError, match="malformed embedding"):
                scorer.score("q", "c")
            return
        if not math.isfinite(norm):
            with pytest.raises(RecallError, match="norm overflows"):
                scorer.score("q", "c")
            return
        # a finite norm scores as cosine always has, bit for bit
        dot = sum(a * b for a, b in zip(left, right))
        score = scorer.score("q", "c")
        assert math.isfinite(score)
        assert score == dot / norm

    def test_dimension_mismatch_is_an_error(self):
        scorer, _, _ = make_scorer([embedding([1.0, 2.0, 3.0]),
                                    embedding([1.0])])
        with pytest.raises(RecallError, match="3 and 1"):
            scorer.score("q", "c")
