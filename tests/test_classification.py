import subprocess
import sys
from pathlib import Path

import pytest

from linvar import models, theories
from linvar.classification import (
    NotLinearIdempotentError,
    _bfs_idempotent,
    check_join_decomposition,
    classify,
)
from linvar.dsl import load_theory, parse_identity
from linvar.models import satisfies
from linvar.presets import hagemann_mitschke, maltsev, majority, semilattice
from linvar.rewriting import Proved, SearchBounds, bfs_prove, verify_derivation
from linvar.saturation import FlatFactBase
from linvar.terms import OperationSymbol
from linvar.theories import UnknownSymbolError, ValidationReport, make_theory


class TestClassify:
    def test_maltsev_all_yes(self, maltsev):
        report = classify(maltsev)
        assert (report.cm.answer, report.nci.answer, report.nperm.answer) == \
            (True, True, True)
        assert report.cm.stages_used == 1

    def test_semilattice_all_no_with_model_certificates(self, semilattice):
        report = classify(semilattice)
        assert (report.cm.answer, report.nci.answer, report.nperm.answer) == \
            (False, False, False)
        for verdict, trace in ((report.nci, report.traces[0]),
                               (report.nperm, report.traces[1])):
            assert verdict.model is not None
            assert verdict.model.size == 2
            assert satisfies(verdict.model, trace.final)

    def test_majority_cm_yes(self, majority):
        report = classify(majority)
        assert report.cm.answer is True
        # cross-check the verdict with the search oracle before trusting it
        from linvar.derivatives import derivative

        outcome = bfs_prove(derivative(majority), parse_identity("x = y"))
        assert isinstance(outcome, Proved)

    def test_yes_certificates_verify(self, corpus):
        for theory in corpus:
            report = classify(theory)
            for verdict, trace in ((report.nci, report.traces[0]),
                                   (report.nperm, report.traces[1])):
                if verdict.answer:
                    assert verdict.derivation is not None
                    assert verify_derivation(trace.final, verdict.derivation)

    def test_no_certificates_satisfy_final_stage(self, corpus):
        for theory in corpus:
            report = classify(theory)
            for verdict, trace in ((report.nci, report.traces[0]),
                                   (report.nperm, report.traces[1])):
                if verdict.answer is False and verdict.model is not None:
                    assert verdict.model.size >= 2
                    assert satisfies(verdict.model, trace.final), theory.name

    def test_cm_implies_nci(self, corpus):
        for theory in corpus:
            report = classify(theory)
            if report.cm.answer:
                assert report.nci.answer, theory.name

    def test_deterministic_reports(self, maltsev):
        a = classify(maltsev).to_json()
        b = classify(maltsev).to_json()
        assert a == b

    def test_rejects_nonlinear(self):
        f, g = OperationSymbol("f", 1), OperationSymbol("g", 1)
        t = make_theory("deep", [f, g], [parse_identity("f(g(x)) = x"),
                                         parse_identity("f(x) = x"),
                                         parse_identity("g(x) = x")])
        with pytest.raises(NotLinearIdempotentError):
            classify(t)

    def test_rejects_non_idempotent(self):
        f = OperationSymbol("f", 2)
        t = make_theory("comm", [f], [parse_identity("f(x,y) = f(y,x)")])
        with pytest.raises(NotLinearIdempotentError):
            classify(t)

    def test_sufficient_only_mode(self):
        # non-linear presentation of a Maltsev-like operation; the sound
        # direction should still recognize congruence modularity
        p = OperationSymbol("p", 3)
        f = OperationSymbol("f", 1)
        t = make_theory("wrapped", [p, f], [
            parse_identity("p(x,y,y) = f(x)"),
            parse_identity("p(y,y,x) = f(x)"),
            parse_identity("f(f(x)) = x"),
            parse_identity("f(x) = x"),
        ])
        report = classify(t, sufficient_only=True)
        assert report.mode == "sufficient-only"
        assert report.cm.answer is True
        assert report.nci.answer is None and report.nperm.answer is None

    def test_moderate_chain_lengths(self):
        report = classify(hagemann_mitschke(3))
        assert report.nperm.answer is True
        trace = report.traces[1]
        # corroborate the final stage's inconsistency with the search oracle
        outcome = bfs_prove(trace.final, parse_identity("x = y"))
        assert isinstance(outcome, Proved)

    def test_longer_chains_classify_as_expected(self):
        from linvar.presets import jonsson

        # distributivity chains stay modular however long; permutability
        # chains stay permutable however long
        assert classify(jonsson(4)).cm.answer is True
        longer = classify(hagemann_mitschke(4))
        assert longer.nperm.answer is True
        assert longer.cm.answer is False

    def test_shortest_modularity_chain_is_permutable(self):
        from linvar.presets import day

        # the two-term modularity chain is strong enough to be permutable,
        # unlike the three-term one; both answers corroborated by search
        short = classify(day(2))
        assert short.nperm.answer is True
        outcome = bfs_prove(short.traces[1].final, parse_identity("x = y"))
        assert isinstance(outcome, Proved)
        assert classify(day(3)).nperm.answer is False


class TestJoinDecomposition:
    def test_two_semilattice_copies(self, semilattice):
        report = check_join_decomposition(semilattice, semilattice)
        assert report.decomposition_holds
        assert report.prime_filter_holds
        for name, j, a, b in report.properties:
            assert j is False and a is False and b is False

    def test_maltsev_with_semilattice(self, maltsev, semilattice):
        report = check_join_decomposition(maltsev, semilattice)
        assert report.decomposition_holds
        assert report.prime_filter_holds
        cm = dict((name, (j, a, b)) for name, j, a, b in report.properties)["cm"]
        assert cm == (True, True, False)

    def test_join_with_empty_theory(self, maltsev):
        empty = make_theory("empty", [], [])
        report = check_join_decomposition(maltsev, empty)
        assert report.decomposition_holds
        assert report.prime_filter_holds


def test_join_answers_need_no_certificates(maltsev, majority, monkeypatch):
    expected = check_join_decomposition(maltsev, majority).to_json()

    def forbidden(*args, **kwargs):
        raise AssertionError("a join must not build certificates")

    monkeypatch.setattr(FlatFactBase, "shortest_chain", forbidden)
    monkeypatch.setattr(models, "find_model", forbidden)
    assert check_join_decomposition(maltsev, majority).to_json() == expected



def test_fixpoint_at_stage_one_searches_its_model_once(semilattice, monkeypatch):
    # the derivative trace stops at stage 1, so the CM and NCI no-verdicts
    # are about the same theory and share one model search
    searched = []
    find_model = models.find_model

    def spy(theory, *args, **kwargs):
        searched.append(theory.name)
        return find_model(theory, *args, **kwargs)

    monkeypatch.setattr(models, "find_model", spy)
    report = classify(semilattice)
    assert searched.count("semilattice'") == 1
    model = {"size": 2, "tables": {"m": [0, 0, 0, 1]}}
    assert report.to_json() == {
        "theory": "semilattice",
        "mode": "exact",
        "verdicts": {
            prop: {"property": prop, "answer": "no", "stages_used": 1,
                   "certificate": "model", "model": model}
            for prop in ("cm", "nci", "nperm")
        },
        "traces": [
            {"operator": "derivative", "budget": 2, "stop": "fixpoint",
             "stages": ["semilattice", "semilattice'"], "stage_sizes": [2, 2]},
            {"operator": "order_derivative", "budget": 2, "stop": "fixpoint",
             "stages": ["semilattice", "semilattice+"], "stage_sizes": [2, 2]},
        ],
    }


def test_no_verdict_without_a_model_in_range_says_why(semilattice):
    # A consistent stage has models of every size from two up, so only a
    # range without such a size leaves a no-verdict without a model; a
    # one-element algebra satisfies x = y and is not taken as one.
    report = classify(semilattice, model_range=(1, 1))
    for verdict in report.verdicts:
        assert verdict.answer is False
        assert verdict.certificate_kind == "none" and verdict.model is None
        assert verdict.note == ("saturation fixpoint consistent; no model of at "
                                "least two elements in the size range 1..1")
    assert classify(semilattice, model_range=(1, 2)).cm.model.size == 2


def test_unknown_symbol_in_idempotency_search_raises(maltsev):
    # a raised error, so that python -O keeps the check
    report = ValidationReport("maltsev", True, (), (("q", "not-established"),))
    with pytest.raises(UnknownSymbolError):
        _bfs_idempotent(maltsev, report, SearchBounds(max_terms=10))


THEORY_FILES = sorted((Path(__file__).resolve().parents[1] / "theories").glob("*.thy"))


@pytest.fixture
def canonicalize_calls(monkeypatch):
    """Count `canonicalize_identity` calls through every module of the
    package that binds the name, each with the name of the function that
    made it (a generator expression counts as its enclosing function)."""
    original = theories.canonicalize_identity
    callers = []

    def counted(e):
        frame = sys._getframe(1)
        if frame.f_code.co_name == "<genexpr>":
            frame = frame.f_back
        callers.append(frame.f_code.co_name)
        return original(e)

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.split(".")[0] == "linvar" \
                and getattr(module, "canonicalize_identity", None) is original:
            monkeypatch.setattr(module, "canonicalize_identity", counted)
    return callers


def test_stages_and_verdicts_canonicalize_nothing_again(canonicalize_calls):
    """The operators write their identities canonically and validation looks
    the idempotency identity up as written, so classifying a loaded preset
    canonicalizes nothing; the join check canonicalizes only what `_embed`'s
    symbol renames changed, once per pair, since it compares later stages
    by their codes instead of joining them again."""
    loaded = [load_theory(str(path)) for path in THEORY_FILES]
    assert len(loaded) == 7
    # loading canonicalizes the axioms, which come from outside the program
    canonicalize_calls.clear()
    for theory in loaded:
        classify(theory)
        assert canonicalize_calls == [], theory.name
    for left in loaded:
        for right in loaded:
            check_join_decomposition(left, right)
    assert len(canonicalize_calls) == 34
    assert set(canonicalize_calls) == {"_embed"}


def test_join_decomposition_sweep_script():
    """The sweep over every ordered preset pair runs the join check end to
    end and finds no failure."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "join_decomposition_sweep.py"
    result = subprocess.run([sys.executable, str(script)], capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert sum(line.startswith("ok ") for line in lines) == 49
    assert lines[-1].startswith("49 pairs in ") and lines[-1].endswith(", 0 failures")
