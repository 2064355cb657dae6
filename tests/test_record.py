"""The package's records are plain classes that keep a dataclass's contract.

Importing `heavenly` builds one dataclass, ImplicitRelation; every other
record derives from `heavenly.record.Record`.  Records are built by
position or keyword with their defaults, validate their fields, refuse
assignment, and compare and hash field by field.
"""

import dataclasses
import inspect
import json
import sys
from pathlib import Path

import pytest

import heavenly.cliapp
from heavenly.cliapp import main
from heavenly.exprdsl import Expr, SmoothFn, parse
from heavenly.fdoracle import CertReport
from heavenly.implicitsolve import BranchPolicy, RootReport
from heavenly.registry import FamilyError, SharedProfile, ShockSolutionDef
from heavenly.superpose import TheoremReport, verify_theorem

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def package_classes():
    """Every class defined in one of heavenly's modules."""
    return [obj for name, module in sorted(sys.modules.items())
            if name == "heavenly" or name.startswith("heavenly.")
            for obj in vars(module).values()
            if inspect.isclass(obj) and obj.__module__ == name]


def test_implicit_relation_is_the_one_dataclass():
    classes = package_classes()
    assert len(classes) > 20
    assert [cls.__name__ for cls in classes
            if dataclasses.is_dataclass(cls)] == ["ImplicitRelation"]


def shared(**constants):
    return SharedProfile(alpha=SmoothFn.parse("t", ("t",)),
                         beta=SmoothFn.parse("y", ("y",)),
                         delta=SmoothFn.parse("z", ("z",)), **constants)


class TestConstruction:
    def test_position_keyword_and_defaults(self):
        assert BranchPolicy(-1.0, 1.0) == BranchPolicy(p_hi=1.0, p_lo=-1.0)
        policy = BranchPolicy(-1.0, 1.0)
        assert (policy.resolution, policy.selection) == (1024, "lowest")
        assert RootReport(0.5, 2.0, 3).converged is True
        assert (shared().a, shared().b) == (1.0, 1.0)

    @pytest.mark.parametrize("build, message", [
        (lambda: RootReport(1.0, 2.0, 3, True, 5), "takes 4 fields, got 5"),
        (lambda: RootReport(1.0, 2.0, 3, root=2.0),
         "repeated or unknown field 'root'"),
        (lambda: RootReport(1.0, 2.0, 3, depth=4),
         "repeated or unknown field 'depth'"),
        (lambda: RootReport(root=1.0),
         r"missing fields \['deriv', 'iterations'\]"),
    ], ids=["too_many", "repeated", "unknown", "missing"])
    def test_bad_fields_are_refused(self, build, message):
        with pytest.raises(TypeError, match=message):
            build()

    def test_replace_keeps_the_rest_and_validates(self):
        policy = BranchPolicy(p_lo=-2.0, selection="nearest")
        assert policy.replace(resolution=64) == BranchPolicy(
            p_lo=-2.0, resolution=64, selection="nearest")
        with pytest.raises(ValueError, match="resolution must be >= 16"):
            policy.replace(resolution=8)
        with pytest.raises(TypeError, match="unknown field 'depth'"):
            policy.replace(depth=3)

    def test_repr_names_every_field(self):
        assert repr(RootReport(0.5, 2.0, 3)) == \
            "RootReport(root=0.5, deriv=2.0, iterations=3, converged=True)"
        assert repr(parse("p", ["p"])) == \
            "Expr(kind='var', value=0.0, name='p', args=())"


class TestExpr:
    def test_parse_equals_the_hand_built_tree(self):
        p, y = Expr("var", name="p"), Expr("var", name="y")
        tree = Expr("add", args=(
            Expr("mul", args=(Expr("pow", args=(p, Expr("const", 2.0))), y)),
            Expr("call", name="sin", args=(p,))))
        parsed = parse("p^2*y + sin(p)", ["p", "y"])
        assert parsed == tree and parsed is not tree
        assert hash(parsed) == hash(tree)
        assert {parsed, tree} == {tree}

    def test_a_field_tells_trees_apart(self):
        e = Expr("call", 1.0, "sin", (Expr("var", name="p"),))
        for other in (Expr("call", 2.0, "sin", e.args),
                      Expr("call", 1.0, "cos", e.args),
                      Expr("call", 1.0, "sin", (Expr("var", name="y"),)),
                      Expr("neg", 1.0, "sin", e.args)):
            assert other != e
        assert e != ("call", 1.0, "sin", e.args)

    def test_frozen(self):
        e = parse("p + 1", ["p"])
        with pytest.raises(AttributeError, match="frozen Expr"):
            e.kind = "sub"
        with pytest.raises(AttributeError, match="frozen Expr"):
            del e.args
        assert e == parse("p + 1", ["p"])


class TestValidation:
    @pytest.mark.parametrize("kwargs, message", [
        ({"p_lo": 1.0, "p_hi": -1.0}, "need p_lo < p_hi"),
        ({"p_lo": 1.0, "p_hi": 1.0}, "need p_lo < p_hi"),
        ({"p_lo": float("nan")}, "need p_lo < p_hi"),
        ({"resolution": 15}, "scan resolution must be >= 16"),
        ({"selection": "biggest"}, "not 'biggest'"),
        ({"selection": True}, "not True"),
        ({"selection": 1.0}, "not 1.0"),
        ({"selection": -1}, "not -1"),
        ({"selection": 64, "resolution": 64}, "0 <= k < 64, not 64"),
    ])
    def test_branch_policy_refuses(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            BranchPolicy(**kwargs)

    def test_branch_policy_refuses_assignment(self):
        policy = BranchPolicy()
        with pytest.raises(AttributeError, match="frozen BranchPolicy"):
            policy.resolution = 8
        assert policy == BranchPolicy() and hash(policy) == \
            hash(BranchPolicy())

    def test_shared_profile_refuses_zero_constants(self):
        with pytest.raises(FamilyError) as exc:
            shared(a=0.0, b=0.0)
        assert str(exc.value) == "(a, b) must not both be zero"
        assert shared(a=0.0).b == 1.0

    def test_a_wrong_variable_convention_is_refused(self):
        fn = SmoothFn.parse("p", ("p",))
        with pytest.raises(FamilyError) as exc:
            ShockSolutionDef(F=fn, G=fn, m=SmoothFn.parse("z", ("z",)),
                             n=SmoothFn.parse("z", ("z",)))
        assert str(exc.value) == ("variable convention: m must be declared "
                                  "over ('y',), got ('z',)")
        with pytest.raises(FamilyError, match="alpha must be declared"):
            SharedProfile(alpha=fn, beta=fn, delta=fn)


def test_cert_report_equality():
    cert = CertReport(certified=3, holes=1, deviations={"p_x": 1e-16})
    assert cert == CertReport(3, 1, {"p_x": 1e-16})
    assert cert != CertReport(3, 1, {"p_x": 2e-16})
    assert cert != CertReport(2, 1, {"p_x": 1e-16})
    assert cert.status == "ok" and CertReport(0, 4, {}).status == "hole"


@pytest.mark.parametrize("build", [
    lambda: TheoremReport(1, 1, 0, 0, {}, 1.0, 1e-9),
    lambda: heavenly.cliapp.load_scenario(SCENARIOS / "shock_n2.json"),
], ids=["TheoremReport", "Scenario"])
def test_formerly_mutable_records_refuse_assignment(build):
    # the two records that were mutable dataclasses are frozen too
    record = build()
    name = type(record).__name__
    with pytest.raises(AttributeError, match=f"frozen {name}"):
        record.n_points = 2
    with pytest.raises(AttributeError, match=f"frozen {name}"):
        del record.threshold


def test_verify_report_holds_every_theorem_report_field(tmp_path):
    # the fields, and values, that dataclasses.asdict gave
    path = SCENARIOS / "shock_n2.json"
    report_path = tmp_path / "r.json"
    assert main(["verify", str(path), "--report", str(report_path)]) == 0
    payload = json.loads(report_path.read_text())["report"]
    sc = heavenly.cliapp.load_scenario(path)
    report = verify_theorem(sc.build_family(), sc.coefficients, sc.points(),
                            policy=sc.policy,
                            threshold=sc.tolerances["residual"])
    expected = {name: getattr(report, name) for name in TheoremReport._fields}
    assert list(expected) == ["n_points", "n_admissible", "n_holes",
                              "n_folds", "checks", "pass_fraction",
                              "threshold"]
    assert payload == json.loads(json.dumps(expected))
