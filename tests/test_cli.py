import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from linvar.cli import main
from linvar.dsl import parse_theory, render_theory
from linvar.presets import maltsev, semilattice
from linvar.theories import theory_equal


@pytest.fixture
def maltsev_file(tmp_path):
    path = tmp_path / "maltsev.thy"
    path.write_text(render_theory(maltsev()))
    return str(path)


@pytest.fixture
def semilattice_file(tmp_path):
    path = tmp_path / "semilattice.thy"
    path.write_text(render_theory(semilattice()))
    return str(path)


class TestValidateCommand:
    def test_valid_theory(self, maltsev_file, capsys):
        assert main(["validate", maltsev_file]) == 0
        out = capsys.readouterr().out
        assert "linear=yes" in out
        assert "derivable" in out

    def test_nonlinear_theory_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.thy"
        path.write_text("theory bad\nop f/1\nop g/1\n"
                        "axiom f(g(x)) = x\naxiom f(x) = x\naxiom g(x) = x\n")
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "non-linear axiom: v0 = f(g(v0))" in out

    def test_parse_error_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.thy"
        path.write_text("theory broken\nop p/3\naxiom p(x,y) = x\n")
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 3" in err and "arity" in err


def test_constant_is_refused_with_its_reason(tmp_path, capsys):
    """An idempotent constant holds only in a trivial variety: classify
    and validate exit 1 and say so, and the status stays not-established."""
    path = tmp_path / "withc.thy"
    path.write_text("theory withc\nop c/0\nop m/2\naxiom m(x,x) = x\n")
    reason = ("c is a constant, and c = x would force x = y, so only a "
              "trivial variety satisfies it")
    assert main(["classify", str(path)]) == 1
    assert capsys.readouterr().err == f"error: withc: {reason}\n"
    report = tmp_path / "validate.json"
    assert main(["validate", str(path), "--json", str(report)]) == 1
    captured = capsys.readouterr()
    assert f"  refused: {reason}\n" in captured.out
    assert "Traceback" not in captured.err
    assert json.loads(report.read_text())["result"]["idempotency"] == \
        {"c": "not-established", "m": "explicit"}


class TestClassifyCommand:
    def test_maltsev_summary(self, maltsev_file, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(["classify", maltsev_file, "--json", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "CM: yes" in out and "NCI: yes" in out and "n-permutable: yes" in out
        data = json.loads(report_path.read_text())
        verdicts = data["result"]["verdicts"]
        assert set(verdicts) == {"cm", "nci", "nperm"}
        assert verdicts["cm"]["answer"] == "yes"
        assert "traces" in data["result"]

    def test_semilattice_all_no(self, semilattice_file, capsys):
        assert main(["classify", semilattice_file]) == 0
        out = capsys.readouterr().out
        assert "CM: no" in out and "model of size 2" in out

    def test_nonlinear_rejected_without_flag(self, tmp_path, capsys):
        path = tmp_path / "wrapped.thy"
        path.write_text("theory wrapped\nop p/3\nop f/1\n"
                        "axiom p(x,y,y) = f(x)\naxiom p(y,y,x) = f(x)\n"
                        "axiom f(f(x)) = x\naxiom f(x) = x\n")
        assert main(["classify", str(path)]) == 1
        assert "not linear" in capsys.readouterr().err

    def test_sufficient_only_mode_exits_2(self, tmp_path, capsys):
        path = tmp_path / "wrapped.thy"
        path.write_text("theory wrapped\nop p/3\nop f/1\n"
                        "axiom p(x,y,y) = f(x)\naxiom p(y,y,x) = f(x)\n"
                        "axiom f(f(x)) = x\naxiom f(x) = x\n")
        assert main(["classify", str(path), "--sufficient-only"]) == 2
        out = capsys.readouterr().out
        assert "CM: yes" in out and "unknown" in out


class TestEntailCommand:
    def test_not_entailed_with_countermodel(self, maltsev_file, capsys):
        assert main(["entail", maltsev_file, "x = p(y,x,x)"]) == 0
        out = capsys.readouterr().out
        assert "not entailed" in out and "countermodel size 2" in out

    def test_entailed_prints_derivation_json(self, maltsev_file, capsys):
        assert main(["entail", maltsev_file, "p(x,y,y) = x"]) == 0
        out = capsys.readouterr().out
        assert "entailed (1 steps)" in out
        payload = json.loads(out.split("\n", 1)[1])
        assert payload["terms"] == ["p(x,y,y)", "x"]

    def test_context_sized_to_the_goal(self, maltsev_file, capsys):
        # six goal variables, more than the default context of four
        assert main(["entail", maltsev_file, "p(x,y,z) = p(u,v,w)"]) == 0
        out = capsys.readouterr().out
        assert "not entailed" in out and "countermodel size 2" in out

    def test_deep_goal_unknown_exits_2(self, maltsev_file, capsys):
        code = main(["entail", maltsev_file, "p(p(x,y,y),y,y) = p(y,y,y)",
                     "--max-depth", "2", "--max-terms", "50"])
        assert code == 2
        assert "unknown" in capsys.readouterr().out

    def test_overdeep_goal_exits_1_without_traceback(self, maltsev_file, capsys):
        deep = "p(" * 3000 + "x" + ",y,z)" * 3000
        assert main(["entail", maltsev_file, f"{deep} = x"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nested deeper" in err
        assert "Traceback" not in err

    def test_goal_parse_error_reports_its_column(self, maltsev_file, capsys):
        # a goal has no line number, so the column is the only position
        deep = "p(" * 3000 + "x" + ",y,z)" * 3000
        assert main(["entail", maltsev_file, f"{deep} = x"]) == 1
        assert "error: column 402: term nested deeper than 200 levels" in \
            capsys.readouterr().err
        # columns count from the start of the goal, not of its right side
        assert main(["entail", maltsev_file, "x = p(x,y"]) == 1
        assert "error: column 10: expected ',' or ')'" in capsys.readouterr().err
        assert main(["entail", maltsev_file, " p(x,$,y) = x"]) == 1
        assert "error: column 6: expected an identifier, got '$'" in capsys.readouterr().err

    def test_axiom_parse_error_counts_from_the_line_start(self, tmp_path, capsys):
        path = tmp_path / "bad.thy"
        path.write_text("theory bad\nop p/3\n  axiom x = p(x,y   # unclosed\n")
        assert main(["entail", str(path), "x = x"]) == 1
        # the term ends where the comment starts, at column 21
        assert "error: line 3, column 21: expected ',' or ')'" in capsys.readouterr().err

    def test_goal_at_nesting_bound_is_searched(self, maltsev_file, capsys):
        from linvar.dsl import MAX_TERM_DEPTH

        deep = "p(" * MAX_TERM_DEPTH + "x" + ",y,z)" * MAX_TERM_DEPTH
        assert main(["entail", maltsev_file, f"{deep} = x", "--max-terms", "2"]) == 2
        assert "unknown" in capsys.readouterr().out


    @pytest.mark.parametrize("flags, reason", [
        (["--max-terms", "0", "--max-depth", "1"], "max_terms reached (expanded 1 terms)"),
        (["--max-depth", "0"], "max_depth reached (expanded 0 terms)"),
        (["--max-term-size", "0"], "frontier exhausted (expanded 2 terms)"),
    ])
    def test_zero_bound_is_not_the_default(self, maltsev_file, capsys, flags, reason):
        # one step proves the goal under the default bounds
        goal = "p(x,y,p(y,y,x)) = p(x,y,x)"
        assert main(["entail", maltsev_file, goal]) == 0
        assert capsys.readouterr().out.startswith("entailed (1 steps)")
        assert main(["entail", maltsev_file, goal] + flags) == 2
        assert capsys.readouterr().out == f"unknown: {reason}\n"

    def test_linear_goal_over_non_linear_theory_is_searched(self, tmp_path, capsys):
        # saturation needs a linear theory as well as a linear goal
        path = tmp_path / "nl.thy"
        path.write_text("theory nl\nop p/2\naxiom p(x,x) = x\n"
                        "axiom p(p(x,y),z) = p(x,p(y,z))\n")
        assert main(["entail", str(path), "p(x,x) = x"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("entailed (1 steps)")
        assert main(["entail", str(path), "p(p(x,y),x) = p(x,p(y,x))"]) == 0
        assert capsys.readouterr().out.startswith("entailed")
        code = main(["entail", str(path), "p(x,y) = p(y,x)",
                     "--max-depth", "2", "--max-terms", "50"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out.startswith("unknown: ")
        assert captured.err == ""


class TestModelsCommand:
    def test_find_model(self, semilattice_file, capsys):
        assert main(["models", semilattice_file, "--min", "2", "--max", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["size"] == 2
        assert data["tables"]["m"] == [0, 0, 0, 1]

    def test_refute(self, maltsev_file, capsys):
        assert main(["models", maltsev_file, "--refute", "x = p(y,x,x)"]) == 0
        out = capsys.readouterr().out
        assert '"size": 2' in out and "assignment" in out

    def test_incomplete_model_exits_1(self, semilattice_file, capsys, monkeypatch):
        from linvar import models

        # a search that stops before deciding every cell must not print a model
        monkeypatch.setattr(models._TableSearch, "_first_undecided", lambda self, start: None)
        assert main(["models", semilattice_file, "--min", "2", "--max", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: table of m has an undecided cell")


def _application_texts(kids):
    """Mostly m(a,b) and g(a) as declared, else any of m, g, p, q over
    1-3 arguments."""
    declared = st.one_of(st.builds(lambda a, b: f"m({a},{b})", kids, kids),
                         st.builds(lambda a: f"g({a})", kids))
    return st.one_of(declared, declared, declared, st.builds(
        lambda f, args: f"{f}({','.join(args)})",
        st.sampled_from(["m", "g", "p", "q"]), st.lists(kids, min_size=1, max_size=3)))


_term_texts = st.recursive(st.sampled_from(["x", "y", "z"]), _application_texts, max_leaves=6)
_equations = st.builds(lambda a, b: f"{a} = {b}", _term_texts, _term_texts)
_identity_texts = st.one_of(_equations, _equations, _equations,
                            st.text(alphabet="xymg(),= ", max_size=12))


def _flawed_theory_text(draw, ops=("m/2", "g/1", "c/0")):
    """Random theory text of up to three axioms: nested and non-linear ones,
    unknown symbols, wrong arities, malformed lines, and once in four each
    a missing header or declaration."""
    often = st.sampled_from([True, True, True, False])
    lines = ["theory t"] if draw(often) else []
    lines += [f"op {op}" for op in ops if draw(often)]
    lines += [f"axiom {ax}" for ax in draw(st.lists(_identity_texts, max_size=3))]
    return "\n".join(lines) + "\n"


@st.composite
def _models_argv(draw, path):
    """`linvar models` over `_flawed_theory_text`, at sizes 0-3, with and
    without a random --refute goal.  At most m/2 and g/1 have tables, so no
    table has more than nine cells."""
    path.write_text(_flawed_theory_text(draw))
    argv = ["models", str(path), "--min", str(draw(st.sampled_from([1, 2, 3, 0]))),
            "--max", str(draw(st.sampled_from([2, 3, 1, 0])))]
    goal = draw(st.none() | _identity_texts)
    return argv if goal is None else argv + ["--refute", goal]


def _assert_total(argv):
    """The command ends in an exit code 0, 1 or 2, without a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_models_command_is_total(tmp_path_factory, data):
    """No theory text or goal makes `linvar models` end in a traceback."""
    _assert_total(data.draw(_models_argv(tmp_path_factory.mktemp("models") / "t.thy")))


def _declared_texts(kids):
    return st.one_of(st.builds(lambda a, b: f"m({a},{b})", kids, kids),
                     st.builds(lambda a: f"g({a})", kids))


_declared_terms = st.recursive(st.sampled_from(["x", "y", "z"]), _declared_texts,
                               max_leaves=5)
_declared_equations = st.builds(lambda a, b: f"{a} = {b}", _declared_terms, _declared_terms)


@st.composite
def _entail_argv(draw, path):
    """`linvar entail` over random theory text and goals.  Three times in
    four the theory declares m/2 and g/1 and its axioms and goal are
    identities over them, flat or nested, linear or not; otherwise both
    have the flaws of `_flawed_theory_text`: unknown symbols, wrong arities,
    missing declarations and malformed lines.  --max-terms is always 0-3,
    so no search grows large; --max-depth and --max-term-size are each
    absent or 0-3.  The default bounds, which an absent --max-terms would
    bring in, are `test_zero_bound_is_not_the_default`'s to cover."""
    if draw(st.sampled_from([True, True, True, False])):
        lines = ["theory t", "op m/2", "op g/1"]
        lines += [f"axiom {ax}" for ax in draw(st.lists(_declared_equations, max_size=3))]
        path.write_text("\n".join(lines) + "\n")
        goals = _declared_equations
    else:
        path.write_text(_flawed_theory_text(draw))
        goals = _identity_texts
    argv = ["entail", str(path), draw(goals), "--max-terms", str(draw(st.integers(0, 3)))]
    for flag in ("--max-depth", "--max-term-size"):
        value = draw(st.none() | st.integers(0, 3))
        if value is not None:
            argv += [flag, str(value)]
    return argv


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_entail_command_is_total(tmp_path_factory, data):
    """No theory text, goal or search bound makes `linvar entail` end in a
    traceback."""
    _assert_total(data.draw(_entail_argv(tmp_path_factory.mktemp("entail") / "t.thy")))


def _terms_over(ops):
    """Terms over the declared (name, arity) pairs, mostly flat."""
    def applications(kids):
        return st.sampled_from(ops).flatmap(lambda op: st.lists(
            kids, min_size=op[1], max_size=op[1]).map(
                lambda args: f"{op[0]}({','.join(args)})"))

    return st.recursive(st.sampled_from(["x", "y", "z"]), applications, max_leaves=4)


def _theory_file(draw, path):
    """Three times in four a theory declaring some of m/2, g/1 and p/3,
    idempotent unless an idempotency axiom is left out (once in eight), plus
    up to three axioms over them, flat or nested; otherwise
    `_flawed_theory_text` with p/3 declarable too.  No arity exceeds three,
    so an order-derivative context has at most four variables."""
    if draw(st.sampled_from([True, True, True, False])):
        ops = [op for op in (("m", 2), ("g", 1), ("p", 3)) if draw(st.booleans())]
        ops = ops or [("m", 2)]
        lines = ["theory t"] + [f"op {name}/{arity}" for name, arity in ops]
        lines += [f"axiom {name}({','.join('x' * arity)}) = x" for name, arity in ops
                  if draw(st.integers(0, 7))]
        terms = _terms_over(ops)
        lines += [f"axiom {a} = {b}" for a, b in
                  draw(st.lists(st.tuples(terms, terms), max_size=3))]
        text = "\n".join(lines) + "\n"
    else:
        text = _flawed_theory_text(draw, ("m/2", "g/1", "c/0", "p/3"))
    path.write_text(text)
    return str(path)


def _with_json(draw, argv, path):
    """argv, and once in four a --json report written next to the input."""
    if draw(st.integers(0, 3)) == 0:
        argv += ["--json", str(path.with_suffix(".json"))]
    return argv


@st.composite
def _derive_argv(draw, path):
    """`linvar derive` over a `_theory_file`, with and without --order and
    --iterate."""
    argv = ["derive", _theory_file(draw, path)]
    argv += [flag for flag in ("--order", "--iterate") if draw(st.booleans())]
    return _with_json(draw, argv, path)


@st.composite
def _classify_argv(draw, path):
    """`linvar classify` over a `_theory_file`, with model sizes 0-3 and
    with and without --sufficient-only."""
    argv = ["classify", _theory_file(draw, path),
            "--min", str(draw(st.sampled_from([2, 1, 3, 0]))),
            "--max", str(draw(st.sampled_from([2, 3, 1, 0])))]
    if draw(st.booleans()):
        argv.append("--sufficient-only")
    return _with_json(draw, argv, path)


@st.composite
def _join_argv(draw, path):
    """`linvar join` of two `_theory_file`s, with and without
    --check-decomposition."""
    argv = ["join", _theory_file(draw, path),
            _theory_file(draw, path.with_name("right.thy"))]
    if draw(st.booleans()):
        argv.append("--check-decomposition")
    return _with_json(draw, argv, path)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_derive_command_is_total(tmp_path_factory, data):
    """No theory text makes `linvar derive` end in a traceback."""
    _assert_total(data.draw(_derive_argv(tmp_path_factory.mktemp("derive") / "t.thy")))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_classify_command_is_total(tmp_path_factory, data):
    """No theory text or model range makes `linvar classify` end in a
    traceback."""
    _assert_total(data.draw(_classify_argv(tmp_path_factory.mktemp("classify") / "t.thy")))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_join_command_is_total(tmp_path_factory, data):
    """No pair of theory texts makes `linvar join` end in a traceback."""
    _assert_total(data.draw(_join_argv(tmp_path_factory.mktemp("join") / "left.thy")))


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3)
    | st.sampled_from(["", "x", "fwd", "m(x,x)", "x = m(x,x)", "c()"]),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["name", "arity", "eq", "pos", "x"]), kids,
                      max_size=3),
    max_leaves=6)


@st.composite
def _document(draw, fields):
    """An object of the given fields, each missing once in eight and once in
    eight any JSON value, else drawn from its strategy; once in eight, any
    JSON value instead of the object."""
    def rarely():
        return draw(st.integers(0, 7)) == 0

    if rarely():
        return draw(_json_values)
    return {key: draw(_json_values if rarely() else good)
            for key, good in fields.items() if not rarely()}


_substitutions = st.dictionaries(st.sampled_from(["x", "y", "v0", "X", "c()"]),
                                 _term_texts, max_size=2)
_steps = _document({"eq": _identity_texts, "dir": st.sampled_from(["fwd", "rev"]),
                    "pos": st.lists(st.integers(0, 3), max_size=3),
                    "subst": _substitutions})
_derivation_documents = _document({
    "theory": st.sampled_from(["t", "join(maltsev,semilattice)"]),
    "terms": st.lists(_term_texts, max_size=4),
    "steps": st.lists(_steps, max_size=3)})
_theory_documents = _document({
    "name": st.sampled_from(["t", "join(a,b)"]),
    "ops": st.lists(_document({"name": st.sampled_from(["m", "g", "c", "M", "1x", ""]),
                               "arity": st.integers(-1, 3)}), max_size=3),
    "axioms": st.lists(_identity_texts, max_size=3),
    "renames": st.lists(st.lists(st.sampled_from(["m", "m_2"]), min_size=2,
                                 max_size=2), max_size=2)})


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_check_derivation_command_is_total(tmp_path_factory, data):
    """No derivation JSON, of whatever shape, makes `linvar check-derivation`
    end in a traceback."""
    folder = tmp_path_factory.mktemp("check")
    theory, derivation = folder / "t.thy", folder / "d.json"
    theory.write_text("theory t\nop m/2\nop g/1\naxiom m(x,x) = x\naxiom g(x) = x\n")
    derivation.write_text(json.dumps(data.draw(_derivation_documents)))
    _assert_total(["check-derivation", str(theory), str(derivation)])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_project_command_is_total(tmp_path_factory, data):
    """Nor does any derivation JSON make `linvar project` end in one; a
    third of the documents are the worked example with one step field
    replaced."""
    from linvar.rewriting import derivation_to_json
    from test_projection import _spec_example_derivation

    folder = tmp_path_factory.mktemp("project")
    left, right = folder / "maltsev.thy", folder / "semilattice.thy"
    left.write_text(render_theory(maltsev()))
    right.write_text(render_theory(semilattice()))
    if data.draw(st.sampled_from([True, False, False])):
        document = derivation_to_json(_spec_example_derivation(maltsev(), semilattice()))
        step = document["steps"][data.draw(st.integers(0, 2))]
        step[data.draw(st.sampled_from(["eq", "dir", "pos", "subst"]))] = \
            data.draw(_json_values)
    else:
        document = data.draw(_derivation_documents)
    derivation = folder / "d.json"
    derivation.write_text(json.dumps(document))
    _assert_total(["project", str(left), str(right), str(derivation)])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_validate_command_is_total(tmp_path_factory, data):
    """Nor does any theory JSON make `linvar validate` end in one."""
    path = tmp_path_factory.mktemp("validate") / "t.json"
    path.write_text(json.dumps(data.draw(_theory_documents)))
    _assert_total(["validate", str(path)])


@pytest.mark.parametrize("command, text", [
    ("check-derivation", '{"steps": 5}'),
    ("check-derivation", "[]"),
    ("check-derivation", '{"theory": "t", "terms": ["x"], "steps": [{"eq": "x = x", "pos": []}]}'),
    ("check-derivation", "[" * 100_000 + "]" * 100_000),
    ("validate", "{}"),
], ids=["no-terms", "a-list", "a-step-without-dir", "deeply-nested", "a-theory-without-ops"])
def test_json_of_the_wrong_shape_exits_1(maltsev_file, tmp_path, capsys, command, text):
    path = tmp_path / "d.json"
    path.write_text(text)
    argv = [command, str(path)] if command == "validate" else [command, maltsev_file, str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_closed_stdout_exits_1_without_traceback(tmp_path):
    """A reader that closes the pipe first, as `| head` or `| true` may."""
    read, write = os.pipe()
    os.close(read)
    src = Path(__file__).resolve().parents[1] / "src"
    theory = tmp_path / "maltsev.thy"
    theory.write_text(render_theory(maltsev()))
    try:
        result = subprocess.run(
            [sys.executable, "-c", "import sys; from linvar.cli import main; "
             "sys.exit(main())", "classify", str(theory)],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src)))
    finally:
        os.close(write)
    assert "Traceback" not in result.stderr, result.stderr
    assert result.returncode == 1


def _run_capped(src, *argv):
    """`linvar` in a child that caps its own address space at 1.5 GiB, so
    a failed allocation cannot press on the host."""
    limit = 3 * 2 ** 29
    return subprocess.run(
        [sys.executable, "-c", "import resource, sys; "
         "hard = resource.getrlimit(resource.RLIMIT_AS)[1]; "
         f"cap = {limit} if hard == resource.RLIM_INFINITY else min({limit}, hard); "
         "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
         "from linvar.cli import main; sys.exit(main())", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)))


def _near_unanimity_file(tmp_path, n):
    theory = tmp_path / f"nu{n}.thy"
    theory.write_text(f"theory nu{n}\nop f/{n}\n" + "".join(
        "axiom f(" + ",".join("y" if j == i else "x" for j in range(n)) + ") = x\n"
        for i in range(n)))
    return theory


def test_an_atom_space_past_memory_exits_1_without_traceback(tmp_path):
    """A goal over 13 variables and one 12-ary symbol puts the context at
    13 variables, so the union-find array needs 13 + 13**12 atoms; the
    message gives the atom count and the context size."""
    src = Path(__file__).resolve().parents[1] / "src"
    theory = tmp_path / "f12.thy"
    theory.write_text("theory f12\nop f/12\naxiom v0 = f(" + ",".join(["v0"] * 12) + ")\n")
    goal = "v0 = f(" + ",".join(f"v{k}" for k in range(1, 13)) + ")"
    result = _run_capped(src, "entail", str(theory), goal)
    assert "Traceback" not in result.stderr, result.stderr
    assert result.returncode == 1
    assert result.stderr == (f"error: saturation over 13 variables needs {13 + 13 ** 12} "
                             "atoms; there is not enough memory for them\n")


def test_classify_decides_a_wide_near_unanimity_symbol(tmp_path):
    """A 12-ary near-unanimity theory classifies under the same cap: both
    iterations start over two variables, and the order derivative's facts
    need three, not the 13 of max_arity + 1."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = tmp_path / "report.json"
    result = _run_capped(src, "classify", str(_near_unanimity_file(tmp_path, 12)),
                         "--json", str(out))
    assert "Traceback" not in result.stderr, result.stderr
    assert result.returncode == 0, result.stderr
    report = json.loads(out.read_text())["result"]
    assert [report["verdicts"][p]["answer"] for p in ("cm", "nci", "nperm")] == \
        ["yes", "yes", "no"]
    assert [t["budget"] for t in report["traces"]] == [2, 3]


def test_validate_decides_a_wide_symbol_over_its_goal_width(tmp_path):
    """Idempotency of a 12-ary near-unanimity symbol is a one-variable goal,
    decided over two variables: 2 + 2**12 atoms, not the 13 + 13**12 of the
    fixed context.  The child caps its address space at 1.5 GiB as above."""
    src = Path(__file__).resolve().parents[1] / "src"
    result = _run_capped(src, "validate", str(_near_unanimity_file(tmp_path, 12)))
    assert (result.returncode, result.stderr) == (0, "")
    assert "idempotency of f: derivable" in result.stdout


def test_models_searches_a_wide_symbol_without_recursion(tmp_path):
    """The first 2-element model of one 12-ary idempotent symbol branches
    on 4094 cells, one search level each, past Python's recursion limit;
    the search keeps its branches on a stack of its own."""
    src = Path(__file__).resolve().parents[1] / "src"
    theory = tmp_path / "f12.thy"
    theory.write_text("theory f12\nop f/12\naxiom v0 = f(" + ",".join(["v0"] * 12) + ")\n")
    result = _run_capped(src, "models", str(theory), "--min", "2", "--max", "2")
    assert "Traceback" not in result.stderr, result.stderr
    assert result.returncode == 0, result.stderr
    tables = json.loads(result.stdout)["tables"]["f"]
    # the lexicographically first model: f is 0 off the diagonal
    assert tables == [0] * (2 ** 12 - 1) + [1]


class TestJoinCommand:
    def test_join_prints_theory(self, maltsev_file, semilattice_file, capsys):
        assert main(["join", maltsev_file, semilattice_file]) == 0
        joined = parse_theory(capsys.readouterr().out)
        assert {s.name for s in joined.symbols} == {"m", "p"}

    def test_check_decomposition(self, maltsev_file, semilattice_file, capsys):
        assert main(["join", maltsev_file, semilattice_file,
                     "--check-decomposition"]) == 0
        out = capsys.readouterr().out
        assert "derivative distributes over the join" in out and "holds" in out
        assert "cm: join=True left=True right=False (ok)" in out


class TestProjectAndCheckDerivation:
    def test_round_trip_through_files(self, maltsev_file, semilattice_file,
                                      tmp_path, capsys):
        from linvar.rewriting import derivation_to_json
        from test_projection import _spec_example_derivation

        d = _spec_example_derivation(maltsev(), semilattice())
        deriv_path = tmp_path / "derivation.json"
        deriv_path.write_text(json.dumps(derivation_to_json(d)))

        code = main(["project", maltsev_file, semilattice_file, str(deriv_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "verified against maltsev" in out
        projected = json.loads(out[:out.rindex("}") + 1])
        assert projected["terms"] == ["p(x,y,y)", "x"]

    def test_check_derivation_valid_and_corrupted(self, maltsev_file, tmp_path, capsys):
        from linvar.rewriting import derivation_to_json
        from linvar.derivatives import derivative
        from linvar.saturation import is_inconsistent, saturate

        verdict = is_inconsistent(saturate(derivative(maltsev())))
        data = derivation_to_json(verdict.derivation)
        good = tmp_path / "good.json"
        good.write_text(json.dumps(data))
        prime = tmp_path / "prime.thy"
        prime.write_text(render_theory(derivative(maltsev())))
        assert main(["check-derivation", str(prime), str(good)]) == 0
        assert "valid derivation" in capsys.readouterr().out

        data["steps"][0]["pos"] = [1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["check-derivation", str(prime), str(bad)]) == 0
        assert "INVALID at step 0" in capsys.readouterr().out

    @pytest.mark.parametrize("bottom, verdict", [
        ("x", "valid derivation"),
        ("y", "INVALID at step 0: step does not produce the next term"),
    ])
    def test_check_derivation_at_the_nesting_bound(self, maltsev_file, tmp_path, capsys,
                                                   bottom, verdict):
        from linvar.rewriting import derivation_to_json
        from test_rewriting import _deep_maltsev_derivation

        path = tmp_path / "deep.json"
        path.write_text(json.dumps(derivation_to_json(_deep_maltsev_derivation(bottom))))
        assert main(["check-derivation", maltsev_file, str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(verdict) and captured.err == ""

    def test_missing_file_exits_1(self, capsys):
        assert main(["classify", "/nonexistent/nope.thy"]) == 1
        assert "error" in capsys.readouterr().err

    def test_directory_as_theory_exits_1(self, tmp_path, capsys):
        assert main(["classify", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err

    def test_unwritable_report_exits_1(self, maltsev_file, tmp_path, capsys):
        report = tmp_path / "missing_dir" / "r.json"
        assert main(["validate", maltsev_file, "--json", str(report)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No such file or directory" in err
        assert not report.exists()


class TestPipelines:
    def test_classify_certificate_replays_through_the_cli(self, maltsev_file,
                                                          tmp_path, capsys):
        """classify --json emits a certificate that check-derivation accepts
        against the derived stage produced by derive."""
        report_path = tmp_path / "report.json"
        assert main(["classify", maltsev_file, "--json", str(report_path)]) == 0
        capsys.readouterr()
        data = json.loads(report_path.read_text())
        cert = data["result"]["verdicts"]["cm"]["derivation"]
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))

        assert main(["derive", maltsev_file]) == 0
        stage_path = tmp_path / "stage.thy"
        stage_path.write_text(capsys.readouterr().out)

        assert main(["check-derivation", str(stage_path), str(cert_path)]) == 0
        assert "valid derivation of x = y" in capsys.readouterr().out


class TestDeriveCommand:
    def test_single_application(self, maltsev_file, capsys):
        assert main(["derive", maltsev_file]) == 0
        derived = parse_theory(capsys.readouterr().out)
        from linvar.derivatives import derivative

        assert theory_equal(derived, derivative(maltsev()))

    def test_iterate_with_json_trace(self, maltsev_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(["derive", maltsev_file, "--order", "--iterate",
                     "--json", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "stopped: inconsistent at stage 1" in out
        data = json.loads(trace_path.read_text())
        assert data["result"]["stop"] == "inconsistent"
        assert len(data["result"]["stages"]) == 2
        assert "certificate" in data["result"]
