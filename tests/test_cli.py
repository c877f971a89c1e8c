"""End-to-end runs of the command line entry point."""

import hashlib
import itertools
import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from roundreach import hyperbolic, system as system_module
from roundreach.cli import dispatch, main, parse_instance, serialize_instance
from roundreach.numerics import Angle
from roundreach.qbf_compiler import GadgetFamily
from roundreach.rounding import (
    ArgandPoint,
    ArgandRounding,
    PolarPoint,
    PolarRounding,
    RoundingKind,
)
from roundreach.system import JnfSystem, JordanBlock, RationalSystem


def polar_example() -> JnfSystem:
    blocks = (JordanBlock(2, Fraction(1), Angle(Fraction(1, 2))),)
    return JnfSystem(
        blocks,
        (PolarPoint(Fraction(5), 0), PolarPoint(Fraction(4), 0)),
        (PolarPoint(Fraction(5), 0), PolarPoint(Fraction(4), 0)),
        PolarRounding(RoundingKind.MINIMAL_ERROR_UP, 2),
    )


def rational_example() -> RationalSystem:
    half = Fraction(1, 2)
    return RationalSystem(
        ((half, Fraction(0)), (Fraction(0), half)),
        (Fraction(9), Fraction(7)),
        (Fraction(0), Fraction(0)),
        ArgandRounding(RoundingKind.FLOOR),
    )


def truncation_example() -> JnfSystem:
    blocks = (JordanBlock(1, Fraction(1), Angle(Fraction(1, 4))),)
    return JnfSystem(
        blocks,
        (ArgandPoint(Fraction(3), Fraction(0)),),
        (ArgandPoint(Fraction(0), Fraction(0)),),
        ArgandRounding(RoundingKind.TRUNCATE),
    )


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_serialize_parse_round_trip():
    for system in (polar_example(), rational_example(), truncation_example()):
        text = serialize_instance(system)
        again = parse_instance(text)
        assert again == system
        assert serialize_instance(again) == text


def test_decide_reached_exit_zero(tmp_path, capsys):
    path = write(tmp_path, "inst.json", serialize_instance(polar_example()))
    assert main(["decide", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "reached"
    assert out["step"] == 0
    assert "witness" in out


def test_decide_polar_instance_past_float_range(tmp_path, capsys):
    # a quarter-turn-per-two-steps orbit whose moduli no float can hold
    big = Fraction(10**400)
    system = JnfSystem(
        (JordanBlock(1, Fraction(1), Angle(Fraction(1, 4))),),
        (PolarPoint(big, 0),),
        (PolarPoint(big, 2),),
        PolarRounding(RoundingKind.FLOOR, 4),
    )
    path = write(tmp_path, "inst.json", serialize_instance(system))
    assert main(["decide", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "reached"
    assert out["step"] == 2
    assert out["witness"] == [{"modulus": str(10**400), "angle_index": 2}]


def test_decide_not_reached_certificate(tmp_path, capsys):
    system = rational_example()
    path = write(tmp_path, "inst.json", serialize_instance(system))
    assert main(["decide", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "reached"

    miss = RationalSystem(
        system.matrix, system.initial, (Fraction(1), Fraction(1)),
        system.rounding)
    path = write(tmp_path, "miss.json", serialize_instance(miss))
    assert main(["decide", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "not-reached"
    assert "certificate" in out


def test_decide_undecided_exit_two(tmp_path, capsys):
    blocks = (JordanBlock(1, Fraction(1), Angle(Fraction(1, 2))),)
    system = JnfSystem(
        blocks,
        (ArgandPoint(Fraction(1), Fraction(0)),),
        (ArgandPoint(Fraction(0), Fraction(1)),),
        ArgandRounding(RoundingKind.MINIMAL_ERROR_UP),
    )
    path = write(tmp_path, "inst.json", serialize_instance(system))
    assert main(["decide", path]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "undecided-by-this-tool"
    assert out["reason"]


def test_parse_error_exit_one(tmp_path, capsys):
    path = write(tmp_path, "bad.json", "{not json")
    assert main(["decide", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_unknown_field_rejected(tmp_path, capsys):
    obj = json.loads(serialize_instance(polar_example()))
    obj["extra"] = True
    path = write(tmp_path, "extra.json", json.dumps(obj))
    assert main(["decide", path]) == 1
    assert "extra" in capsys.readouterr().err


def test_missing_field_rejected(tmp_path, capsys):
    obj = json.loads(serialize_instance(polar_example()))
    del obj["target"]
    path = write(tmp_path, "missing.json", json.dumps(obj))
    assert main(["decide", path]) == 1
    assert "target" in capsys.readouterr().err


# each integer field of the instance format: an example holding it, and
# the object it sits in
INTEGER_FIELDS = {
    "version": (truncation_example, lambda obj: obj),
    "size": (truncation_example, lambda obj: obj["blocks"][0]),
    "angle_resolution": (polar_example, lambda obj: obj["rounding"]),
    "angle_index": (polar_example, lambda obj: obj["initial"][0]),
}


@pytest.mark.parametrize("field", list(INTEGER_FIELDS))
def test_boolean_integer_field_rejected(tmp_path, capsys, field):
    # JSON true would otherwise pass as the integer 1
    example, holder = INTEGER_FIELDS[field]
    obj = json.loads(serialize_instance(example()))
    holder(obj)[field] = True
    path = write(tmp_path, "bool.json", json.dumps(obj))
    assert main(["decide", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err


# a malformed value for each array field and for the objects it holds:
# an example holding the field, and the fields put in its place
NO_POINTS = {"initial": [], "target": []}
MALFORMED_FIELDS = {
    "matrix-string": (rational_example, {"matrix": "1234"}),
    "matrix-string-rows": (rational_example, {"matrix": ["12", "34"]}),
    "matrix-number-row": (rational_example, {"matrix": [5]}),
    "matrix-empty": (rational_example, {"matrix": [], **NO_POINTS}),
    "rational-initial": (rational_example, {"initial": "97"}),
    "rational-target": (rational_example, {"target": "00"}),
    "blocks-string": (truncation_example, {"blocks": "1"}),
    "blocks-number-entry": (truncation_example, {"blocks": [5]}),
    "blocks-empty": (truncation_example, {"blocks": [], **NO_POINTS}),
    "jnf-initial": (truncation_example, {"initial": "3"}),
    "jnf-target": (truncation_example, {"target": "0"}),
}


@pytest.mark.parametrize("case", list(MALFORMED_FIELDS))
def test_malformed_field_rejected(tmp_path, capsys, case):
    # a string would otherwise be read as the list of its characters
    example, fields = MALFORMED_FIELDS[case]
    obj = json.loads(serialize_instance(example()))
    obj.update(fields)
    path = write(tmp_path, "bad.json", json.dumps(obj))
    for command in ("decide", "bounds", "simulate"):
        argv = [command, path] + (["--steps", "2"] if command == "simulate" else [])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


@pytest.mark.parametrize("theta", ["1/0 pi", "2^(1/0) pi", "2^(1/2)/0 pi"])
def test_rotate_rejects_zero_denominator(capsys, theta):
    assert main(["rotate", "--radius", "2", "--theta", theta]) == 1
    assert capsys.readouterr().err.startswith("error: zero denominator")


def test_simulate_prints_states(tmp_path, capsys):
    path = write(tmp_path, "inst.json", serialize_instance(polar_example()))
    assert main(["simulate", path, "--steps", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["states"]) == 4
    first = out["states"][0]
    assert first[0] == {"modulus": "5", "angle_index": 0}


def test_bounds_outputs_tables(tmp_path, capsys):
    path = write(tmp_path, "inst.json", serialize_instance(polar_example()))
    assert main(["bounds", path]) == 0
    text = capsys.readouterr().out
    assert "step cap" in text
    assert "modulus ceiling per dimension" in text

    path = write(tmp_path, "rat.json", serialize_instance(rational_example()))
    assert main(["bounds", path]) == 0
    text = capsys.readouterr().out
    assert "step cap" in text


def test_compile_qbf_stdout(tmp_path, capsys):
    formula = write(tmp_path, "f.txt", "exists x1 forall x2 : (x1 | !x2)\n")
    assert main(["compile-qbf", formula]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "hardness"
    assert out["family"] == "minerr"
    # prefix pads to 4 alternating quantifiers; the matrix has 2 operators
    assert out["dimension"] == (3 * 4 + 1 + 2) * (4 * 4 + 15 + 2)
    assert out["factor"] == "1"


def test_compile_qbf_flags(tmp_path, capsys):
    formula = write(tmp_path, "f.txt", "exists x1 forall x2 : (x1 & !x2)\n")
    assert main(["compile-qbf", formula, "--family", "floor", "--perturb"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["family"] == "floor"
    assert out["factor"] == "11/10"

    target = tmp_path / "hard.json"
    assert main(["compile-qbf", formula, "-o", str(target)]) == 0
    meta = json.loads(capsys.readouterr().out)
    assert meta["out"] == str(target)
    assert json.loads(target.read_text())["kind"] == "hardness"


def test_compile_qbf_rejects_ceil_perturb_up_front(tmp_path, capsys):
    # the formula file is never read: the combination fails for every formula
    missing = str(tmp_path / "no-such-formula.txt")
    assert main(["compile-qbf", missing, "--family", "ceil", "--perturb"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--family ceil" in captured.err and "--perturb" in captured.err


def test_compile_qbf_accepts_the_instance_file_spelling(tmp_path, capsys):
    assert GadgetFamily("minimal_error_up") is GadgetFamily.MINIMAL_ERROR
    formula = write(tmp_path, "f.txt", "forall x1 exists x2 : x1 | x2\n")
    assert main(["compile-qbf", formula, "--family", "minerr"]) == 0
    minerr = capsys.readouterr().out
    assert main(["compile-qbf", formula, "--family", "minimal_error_up"]) == 0
    assert capsys.readouterr().out == minerr
    assert json.loads(minerr)["family"] == "minerr"


def test_compile_qbf_qdimacs(tmp_path, capsys):
    text = "p cnf 2 2\ne 1 0\na 2 0\n1 2 0\n-1 -2 0\n"
    formula = write(tmp_path, "f.qdimacs", text)
    assert main(["compile-qbf", formula, "--qdimacs"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "hardness"


@pytest.mark.parametrize("text, message", [
    ("p cnf 1 1\na -1 0\n1 0\n", "quantified variable -1 is outside 1..1"),
    ("p cnf 1 1\n1 5 0\n", "literal 5 names a variable past 1"),
    ("p cnf 2 2\n1 2 0\n-1 -2\n", "the last clause does not end in 0"),
], ids=["quantified-outside-range", "literal-past-n", "unterminated-clause"])
def test_compile_qbf_qdimacs_rejects_malformed_input(tmp_path, capsys, text, message):
    formula = write(tmp_path, "f.qdimacs", text)
    assert main(["compile-qbf", formula, "--qdimacs"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


# SHA-256 of the compile-qbf output for each formula, family and perturbation,
# pinning the emitted bytes
COMPILE_QBF_DIGESTS = {
    "readme": ("forall x1 exists x2 : (x1 | !x2) & x2\n", [], {
        ("floor", False): "d2003bc692fc4cf7cb5abb8c4c672f536ced004784095e47ed96bc023fdb9722",
        ("floor", True): "b82e569f87c98fe6e1e2ad276b04e9e6be33651e09bdc1277091af0f300cbe67",
        ("ceil", False): "c960687fff44678c9483d6d98052bc16b88292c4bede51ce6e7ef23d5c8d08ba",
        ("minerr", False): "138d6ff511332f0d9b2d419438383bf98032fe919bf30f5e0625c380acff9949",
        ("minerr", True): "1b3cf46b134345ff06b3eb2858737ddf4474f39095e694f5cfa8010fbe34a770",
    }),
    "qdimacs": ("p cnf 2 2\ne 1 0\na 2 0\n1 2 0\n-1 -2 0\n", ["--qdimacs"], {
        ("floor", False): "62a7ac15c2f7af31f09fd2ce7eb50c2f08ae7746fc938f54f35a29afd4f95a4b",
        ("floor", True): "259ca2575fab432018bfc0f46758f6185ea9206002c1308075d93be43d692800",
        ("ceil", False): "ae03f22ecad6dfb810ee9336f74abc61191d2ecb227f71e2adf67c2f619e7c1b",
        ("minerr", False): "db065bdce3a043d61016d738aadfe120554414b7bccf742b16e1068d306b4cba",
        ("minerr", True): "33b645aa3ec2b7760657fc9b6d58a13ec765ddd3ba2d53e5ff5acef88b206adb",
    }),
    # two of criterion 2's two-variable matrices: a constant root and a
    # constant operand, both of which put the constant slot in a row twice
    "constant-root": ("forall x1 exists x2 : true\n", [], {
        ("floor", False): "5fadba29765b70f8736ec7f42714363711ad5f8b3c207b2b87194096f5cc78db",
        ("floor", True): "91f9adf983bfe7cb14dee776cfc18a3dc4f42111ba65b8bb6993dea001895b2f",
        ("ceil", False): "d0ae0fd61c75f7c9388981977aabd3e9d897e8f8d5572ae23f543dfdb24888dd",
        ("minerr", False): "e6846f7961062078fe5b79908303d0f82ba04a7e680eea0e4f7ad227979cdc12",
        ("minerr", True): "c6194fb58e195a87a395031810c5d5baed55617e431334a1adb4b3a6dd9d3db2",
    }),
    "constant-operand": ("forall x1 exists x2 : x1 | true\n", [], {
        ("floor", False): "2db2c8dfa016f0155a2f80f808f0519751132ef69370060d310922b7166aab84",
        ("floor", True): "8a828d8d03024507915718e6dfd40971a3aea9429604a39cb647f4927b87821d",
        ("ceil", False): "b429ba32ed51d90c639bd9fd028d6bf535387938a0f5d0be5ac4e1dca8db62ae",
        ("minerr", False): "cd97dff2ad8ee1ff2a351ea1ec1f02c87c8d17c7a0c0a5394cb649ed6a8eb638",
        ("minerr", True): "eadc37600a1a90336bcbed8e5c274154a2dc122d31208ad9f17fde6400b51d6d",
    }),
}


@pytest.mark.parametrize("name", sorted(COMPILE_QBF_DIGESTS))
def test_compile_qbf_bytes_are_pinned(tmp_path, capsys, name):
    text, extra, digests = COMPILE_QBF_DIGESTS[name]
    formula = write(tmp_path, "f.txt", text)
    for (family, perturbed), digest in digests.items():
        flags = ["--perturb"] if perturbed else []
        assert main(["compile-qbf", formula, "--family", family, *extra, *flags]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (family, perturbed)


def test_rotate_stdout_csv(capsys):
    assert main(["rotate", "--radius", "1", "--theta", "1/2 pi"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,y,first_generation"
    assert len(lines) == 6


def test_rotate_out_file(tmp_path, capsys):
    target = tmp_path / "grid.csv"
    assert main(["rotate", "--radius", "3", "--theta", "1/2 pi",
                 "--out", str(target)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["radius"] == 3
    assert summary["unresolved"] == 0
    assert summary["cells"] == 29
    body = target.read_text().splitlines()
    assert body[0] == "x,y,first_generation"
    assert len(body) == 30


def test_rotate_out_counts_each_start_once(tmp_path, capsys):
    target = tmp_path / "grid.csv"
    assert main(["rotate", "--radius", "3", "--theta", "1/2 pi", "--budget", "1",
                 "--out", str(target)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["unresolved"] > 0
    assert summary["starts"] == 29


def test_rotate_rejects_nonpositive_radius(capsys):
    for radius in ("0", "-2"):
        assert main(["rotate", "--radius", radius, "--theta", "1/2 pi"]) == 1
        assert "--radius must be positive" in capsys.readouterr().err


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_instance_blocks_decide_as_stated():
    readme = README.read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    stated = re.findall(r"# (Reached\(step=\d+\))", readme)
    assert stated == ["Reached(step=4)", "Reached(step=13)"]
    assert [str(dispatch(parse_instance(block))) for block in blocks] == stated


def test_stdin_instance(tmp_path, capsys, monkeypatch):
    import io

    text = serialize_instance(polar_example())
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["decide", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["outcome"] == "reached"


def test_version_field_checked(tmp_path, capsys):
    obj = json.loads(serialize_instance(polar_example()))
    obj["version"] = 99
    path = write(tmp_path, "v.json", json.dumps(obj))
    assert main(["decide", path]) == 1
    assert "version" in capsys.readouterr().err


def test_bounds_prints_the_deciders_tables(tmp_path, capsys):
    # a real block under floor rounding: the decider's real-only effect
    # bound 1 gives radius 1 + max(|3|, |5|) = 6, not 3/2 + 5
    system = JnfSystem(
        (JordanBlock(1, Fraction(2), Angle(Fraction(0))),),
        (ArgandPoint(Fraction(3), Fraction(0)),),
        (ArgandPoint(Fraction(5), Fraction(0)),),
        ArgandRounding(RoundingKind.FLOOR),
    )
    path = write(tmp_path, "inst.json", serialize_instance(system))
    assert main(["bounds", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  escape radius per dimension: 6" in lines
    assert lines[-1].startswith("step cap: ")
    assert lines[-1].endswith(" (proved state bound)")
    assert main(["decide", path]) == 0
    certificate = json.loads(capsys.readouterr().out)["certificate"]
    assert certificate == {"type": "escaped_radius", "dimension": 0, "radius": "6"}

    path = write(tmp_path, "polar.json", serialize_instance(polar_example()))
    assert main(["bounds", path]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(" (safety net)")


def unit_floor_example() -> JnfSystem:
    return JnfSystem(
        (JordanBlock(1, Fraction(1), Angle(Fraction(1, 4))),),
        (ArgandPoint(Fraction(3), Fraction(0)),),
        (ArgandPoint(Fraction(0), Fraction(0)),),
        ArgandRounding(RoundingKind.FLOOR),
    )


def unit_rational_example() -> RationalSystem:
    return RationalSystem(
        ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(2))),
        (Fraction(3), Fraction(1)),
        (Fraction(0), Fraction(0)),
        ArgandRounding(RoundingKind.FLOOR),
    )


@pytest.mark.parametrize("example", [unit_floor_example, unit_rational_example])
def test_bounds_is_undecided_where_decide_is(example, tmp_path, capsys):
    path = write(tmp_path, "inst.json", serialize_instance(example()))
    assert main(["decide", path]) == 2
    decided = capsys.readouterr().out
    assert json.loads(decided)["outcome"] == "undecided-by-this-tool"
    assert main(["bounds", path]) == 2
    assert capsys.readouterr().out == decided


def test_bounds_prints_the_cap_the_decider_runs_under(tmp_path, capsys, monkeypatch):
    caps = []
    iterate = system_module.iterate

    def recording(*args, cap, cap_is_state_bound):
        caps.append((cap, cap_is_state_bound))
        return iterate(*args, cap=cap, cap_is_state_bound=cap_is_state_bound)

    monkeypatch.setattr(system_module, "iterate", recording)
    monkeypatch.setattr(hyperbolic, "iterate", recording)
    unit_45 = JordanBlock(1, Fraction(1), Angle(Fraction(1, 4)))
    half = JordanBlock(1, Fraction(1, 2), Angle(Fraction(0)))
    points = (ArgandPoint(Fraction(3), Fraction(0)), ArgandPoint(Fraction(4), Fraction(0)))
    far = (ArgandPoint(Fraction(9), Fraction(0)), ArgandPoint(Fraction(0), Fraction(0)))
    floor_hyperbolic = JnfSystem(
        (JordanBlock(1, Fraction(2), Angle(Fraction(0))), half),
        points,
        far,
        ArgandRounding(RoundingKind.FLOOR),
    )
    truncate = JnfSystem((unit_45, half), points, far, ArgandRounding(RoundingKind.TRUNCATE))
    expand = JnfSystem((unit_45, half), points, far, ArgandRounding(RoundingKind.EXPAND))
    routes = (floor_hyperbolic, polar_example(), truncate, expand, rational_example())
    for system in routes:
        path = write(tmp_path, "inst.json", serialize_instance(system))
        assert main(["decide", path]) == 0
        capsys.readouterr()
        (cap, cap_is_state_bound), = caps
        caps.clear()
        assert main(["bounds", path]) == 0
        label = "proved state bound" if cap_is_state_bound else "safety net"
        assert capsys.readouterr().out.splitlines()[-1] == f"step cap: {cap} ({label})"
    assert not caps


def _readme_command_lines(readme: str) -> list[list[str]]:
    """Every `roundreach ...` line of the Command line block, with its
    bracketed options left out, then put in once per listed alternative."""
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.S).group(1)
    runs = []
    for line in block.splitlines():
        line = line.split("#")[0].strip()
        assert line.startswith("roundreach ")
        template = re.sub(r"\[[^]]*\]", "{}", line)
        options = []
        for bracket in re.findall(r"\[([^]]*)\]", line):
            flag, _, alternatives = bracket.partition(" ")
            options.append(
                [f"{flag} {a}" for a in alternatives.split("|")] if alternatives else [flag]
            )
        runs.append(shlex.split(template.format(*[""] * len(options)))[1:])
        if options:
            for chosen in itertools.product(*options):
                runs.append(shlex.split(template.format(*chosen))[1:])
    return runs


def test_readme_command_lines_run(tmp_path, capsys, monkeypatch):
    readme = README.read_text()
    instances = re.findall(r"```json\n(.*?)```", readme, re.S)
    formula = re.search(r"matrix: `([^`]+)`", readme).group(1)
    (tmp_path / "formula.txt").write_text(formula + "\n")
    (tmp_path / "formula.qdimacs").write_text("p cnf 1 1\n1 0\n")
    monkeypatch.chdir(tmp_path)
    runs = _readme_command_lines(readme)
    assert len(runs) == 10
    assert ["bounds", "instance.json"] in runs
    for instance in instances:
        (tmp_path / "instance.json").write_text(instance)
        for argv in runs:
            # as the README says, a ceiling copy row cannot take the 11/10 scale
            rejected = "ceil" in argv and "--perturb" in argv
            assert main(argv) == (1 if rejected else 0), argv
            out = capsys.readouterr().out
            if argv[0] == "bounds":
                assert out.splitlines()[-1].startswith("step cap: ")
    assert (tmp_path / "out.json").exists() and (tmp_path / "grid.csv").exists()
