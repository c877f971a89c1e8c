"""Compiling quantified boolean formulas into rounded linear systems."""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Callable, Mapping, Optional, Sequence, Union

from .errors import GadgetBrokenError, InternalInvariantError
from .rounding import RULES, ArgandRounding, RoundingKind
from .system import Reached, iterate


# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Not:
    sub: "BoolExpr"


@dataclass(frozen=True)
class And:
    left: "BoolExpr"
    right: "BoolExpr"


@dataclass(frozen=True)
class Or:
    left: "BoolExpr"
    right: "BoolExpr"


@dataclass(frozen=True)
class Const:
    value: bool


BoolExpr = Union[Var, Not, And, Or, Const]


def expr_vars(expr: BoolExpr) -> set[int]:
    if isinstance(expr, Var):
        return {expr.index}
    if isinstance(expr, Not):
        return expr_vars(expr.sub)
    if isinstance(expr, (And, Or)):
        return expr_vars(expr.left) | expr_vars(expr.right)
    return set()


def op_count(expr: BoolExpr) -> int:
    """Number of logical operators (internal nodes, negation included)."""
    if isinstance(expr, Not):
        return 1 + op_count(expr.sub)
    if isinstance(expr, (And, Or)):
        return 1 + op_count(expr.left) + op_count(expr.right)
    return 0


def eval_expr(expr: BoolExpr, assignment: dict[int, bool]) -> bool:
    if isinstance(expr, Var):
        return assignment[expr.index]
    if isinstance(expr, Not):
        return not eval_expr(expr.sub, assignment)
    if isinstance(expr, And):
        return eval_expr(expr.left, assignment) and eval_expr(expr.right, assignment)
    if isinstance(expr, Or):
        return eval_expr(expr.left, assignment) or eval_expr(expr.right, assignment)
    return expr.value


@dataclass(frozen=True)
class QbfFormula:
    """A prenex QBF: quantifier prefix over distinct variables, then a matrix."""

    prefix: tuple[tuple[str, int], ...]
    matrix: BoolExpr

    def __post_init__(self) -> None:
        seen = set()
        for quant, v in self.prefix:
            if quant not in ("a", "e"):
                raise ValueError(f"unknown quantifier {quant!r}")
            if v in seen:
                raise ValueError(f"variable x{v} quantified twice")
            seen.add(v)
        free = expr_vars(self.matrix) - seen
        if free:
            raise ValueError(f"free variables: {sorted(free)}")

    def is_canonical(self) -> bool:
        n = len(self.prefix)
        if n == 0 or n % 2 != 0:
            return False
        for pos, (quant, v) in enumerate(self.prefix, start=1):
            if v != pos:
                return False
            if quant != ("a" if pos % 2 == 1 else "e"):
                return False
        return True


def canonicalize(formula: QbfFormula) -> QbfFormula:
    """Equivalent formula whose prefix strictly alternates forall/exists,
    starts with forall, ends with exists, and numbers variables 1..n.

    Padding uses fresh variables absent from the matrix, which leaves the
    truth value unchanged.
    """
    quants: list[str] = []
    originals: list[Optional[int]] = []
    expected = "a"
    for quant, v in formula.prefix:
        if quant != expected:
            quants.append(expected)
            originals.append(None)
            expected = "e" if expected == "a" else "a"
        quants.append(quant)
        originals.append(v)
        expected = "e" if expected == "a" else "a"
    if not quants:
        quants = ["a"]
        originals = [None]
        expected = "e"
    if expected == "e":
        # last bound quantifier was forall; close with an exists
        quants.append("e")
        originals.append(None)
    rename = {
        old: pos
        for pos, old in enumerate(originals, start=1)
        if old is not None
    }
    new_prefix = tuple(
        ("a" if pos % 2 == 1 else "e", pos) for pos in range(1, len(quants) + 1)
    )

    def remap(expr: BoolExpr) -> BoolExpr:
        if isinstance(expr, Var):
            return Var(rename[expr.index])
        if isinstance(expr, Not):
            return Not(remap(expr.sub))
        if isinstance(expr, And):
            return And(remap(expr.left), remap(expr.right))
        if isinstance(expr, Or):
            return Or(remap(expr.left), remap(expr.right))
        return expr

    out = QbfFormula(new_prefix, remap(formula.matrix))
    if not out.is_canonical():
        raise InternalInvariantError("canonicalization failed to normalize the prefix")
    return out


def evaluate_qbf(formula: QbfFormula, limit: int = 16) -> bool:
    """Semantic truth value by exhaustive quantifier expansion."""
    if len(formula.prefix) > limit:
        raise ValueError(f"refusing to expand more than {limit} quantifiers")
    assignment: dict[int, bool] = {}

    def rec(i: int) -> bool:
        if i == len(formula.prefix):
            return eval_expr(formula.matrix, assignment)
        quant, v = formula.prefix[i]
        results = []
        for val in (False, True):
            assignment[v] = val
            results.append(rec(i + 1))
        del assignment[v]
        return all(results) if quant == "a" else any(results)

    return rec(0)


# ---------------------------------------------------------------------------
# Parsing


class _Tokens:
    def __init__(self, items: list[str]) -> None:
        self.items = items
        self.at = 0

    def peek(self) -> Optional[str]:
        return self.items[self.at] if self.at < len(self.items) else None

    def pop(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of formula")
        self.at += 1
        return tok


def _tokenize(text: str) -> list[str]:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()|&!:":
            out.append(ch)
            i += 1
            continue
        j = i
        while j < len(text) and (text[j].isalnum() or text[j] == "_"):
            j += 1
        if j == i:
            raise ValueError(f"unexpected character {ch!r}")
        out.append(text[i:j])
        i = j
    return out


def _parse_var(tok: str) -> int:
    if not tok.startswith("x") or not tok[1:].isdigit():
        raise ValueError(f"expected a variable like x1, got {tok!r}")
    index = int(tok[1:])
    if index < 1:
        raise ValueError("variable indices start at 1")
    return index


def _parse_or(tokens: _Tokens) -> BoolExpr:
    left = _parse_and(tokens)
    while tokens.peek() == "|":
        tokens.pop()
        left = Or(left, _parse_and(tokens))
    return left


def _parse_and(tokens: _Tokens) -> BoolExpr:
    left = _parse_atom(tokens)
    while tokens.peek() == "&":
        tokens.pop()
        left = And(left, _parse_atom(tokens))
    return left


def _parse_atom(tokens: _Tokens) -> BoolExpr:
    tok = tokens.pop()
    if tok == "(":
        inner = _parse_or(tokens)
        if tokens.pop() != ")":
            raise ValueError("unbalanced parentheses")
        return inner
    if tok == "!":
        return Not(_parse_atom(tokens))
    if tok in ("true", "1"):
        return Const(True)
    if tok in ("false", "0"):
        return Const(False)
    return Var(_parse_var(tok))


def parse_prefix_formula(text: str) -> QbfFormula:
    """Parse 'forall x1 exists x2 : (x1 | x2)' style input."""
    tokens = _Tokens(_tokenize(text))
    prefix = []
    while tokens.peek() in ("forall", "exists"):
        quant = "a" if tokens.pop() == "forall" else "e"
        prefix.append((quant, _parse_var(tokens.pop())))
    if tokens.peek() == ":":
        tokens.pop()
    elif prefix:
        raise ValueError("expected ':' between prefix and matrix")
    matrix = _parse_or(tokens)
    if tokens.peek() is not None:
        raise ValueError(f"trailing input from {tokens.peek()!r}")
    return QbfFormula(tuple(prefix), matrix)


def parse_qdimacs(text: str) -> QbfFormula:
    """Parse QDIMACS; free variables bind existentially at the front.  Every
    variable must lie in 1..n of the 'p cnf n m' line, and every clause,
    the last one included, must end in 0."""
    header = None
    prefix: list[tuple[str, int]] = []
    clause_tokens: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad problem line: {line!r}")
            header = (int(parts[2]), int(parts[3]))
            continue
        if line[0] in "ae":
            kind = line[0]
            body = line[1:].split()
            if not body or body[-1] != "0":
                raise ValueError(f"quantifier line must end in 0: {line!r}")
            for tok in body[:-1]:
                prefix.append((kind, int(tok)))
            continue
        clause_tokens.extend(int(tok) for tok in line.split())
    if header is None:
        raise ValueError("missing 'p cnf' line")
    n = header[0]
    for _q, v in prefix:
        if not 1 <= v <= n:
            raise ValueError(f"quantified variable {v} is outside 1..{n}")
    clauses: list[list[int]] = [[]]
    for lit in clause_tokens:
        if abs(lit) > n:
            raise ValueError(f"literal {lit} names a variable past {n}")
        if lit == 0:
            clauses.append([])
        else:
            clauses[-1].append(lit)
    if clauses[-1]:
        raise ValueError("the last clause does not end in 0")
    clauses = [c for c in clauses if c]
    if len(clauses) != header[1]:
        raise ValueError(f"expected {header[1]} clauses, found {len(clauses)}")

    def literal(lit: int) -> BoolExpr:
        return Var(lit) if lit > 0 else Not(Var(-lit))

    def or_chain(lits: list[int]) -> BoolExpr:
        expr: BoolExpr = literal(lits[0])
        for lit in lits[1:]:
            expr = Or(expr, literal(lit))
        return expr

    matrix: BoolExpr = Const(True)
    exprs = [or_chain(c) for c in clauses]
    if exprs:
        matrix = exprs[0]
        for e in exprs[1:]:
            matrix = And(matrix, e)
    bound = {v for _q, v in prefix}
    free = sorted(expr_vars(matrix) - bound)
    prefix = [("e", v) for v in free] + prefix
    return QbfFormula(tuple(prefix), matrix)


# ---------------------------------------------------------------------------
# Gadget rows


class GadgetFamily(enum.Enum):
    FLOOR = "floor"
    CEIL = "ceil"
    MINIMAL_ERROR = "minerr"

    @classmethod
    def _missing_(cls, value: object) -> Optional["GadgetFamily"]:
        # instance files spell a family by its rounding kind: minimal_error_up
        for family in cls:
            if family.rounding_kind.value == value:
                return family
        return None

    @property
    def rounding_kind(self) -> RoundingKind:
        return _FAMILY_KINDS[self]


_FAMILY_KINDS = {
    GadgetFamily.FLOOR: RoundingKind.FLOOR,
    GadgetFamily.CEIL: RoundingKind.CEIL,
    GadgetFamily.MINIMAL_ERROR: RoundingKind.MINIMAL_ERROR_UP,
}


# A row (terms, denominator): sorted (column, numerator) pairs, none zero, over
# one positive denominator.  It reads sum(numerator * state[column]) / denominator.
IntegerRow = tuple[tuple[tuple[int, int], ...], int]

# Each family's or and and gates, in that order, as (denominator, constant
# numerator): the gate rounds (constant + u + v) / denominator.
_GATES = {
    GadgetFamily.FLOOR: ((2, 1), (3, 1)),
    GadgetFamily.CEIL: ((2, 0), (2, -1)),
    GadgetFamily.MINIMAL_ERROR: ((3, 1), (3, 0)),
}


@dataclass(frozen=True)
class Operand:
    """A gadget input: a program variable, possibly negated, or a constant."""

    var: Optional[int] = None
    negated: bool = False
    const: Optional[bool] = None

    @staticmethod
    def of(var: int) -> "Operand":
        return Operand(var=var)

    @staticmethod
    def neg(var: int) -> "Operand":
        return Operand(var=var, negated=True)

    @staticmethod
    def true() -> "Operand":
        return Operand(const=True)

    @staticmethod
    def false() -> "Operand":
        return Operand(const=False)


def _row(one: int, den: int, const: int, *signed: tuple[int, Operand]) -> IntegerRow:
    """(const + sum of sign * operand) / den, where column one holds 1: a
    constant operand and the 1 in a negation (1 - x) add to that column."""
    acc = {one: const}
    for sign, operand in signed:
        if operand.var is None:
            acc[one] += sign * operand.const
            continue
        if operand.negated:
            acc[one] += sign
            sign = -sign
        acc[operand.var] = acc.get(operand.var, 0) + sign
    return tuple(sorted((col, num) for col, num in acc.items() if num)), den


def or_row(family: GadgetFamily, u: Operand, v: Operand, one: int) -> IntegerRow:
    den, const = _GATES[family][0]
    return _row(one, den, const, (1, u), (1, v))


def and_row(family: GadgetFamily, u: Operand, v: Operand, one: int) -> IntegerRow:
    den, const = _GATES[family][1]
    return _row(one, den, const, (1, u), (1, v))


def not_row(u: Operand, one: int) -> IntegerRow:
    return _row(one, 1, 1, (-1, u))


def copy_row(u: Operand, one: int) -> IntegerRow:
    return _row(one, 1, 0, (1, u))


def zero_row() -> IntegerRow:
    return (), 1


def scaled_row(row: IntegerRow, factor: Fraction) -> IntegerRow:
    """The row times a positive factor, still over one positive denominator.
    The terms need not be in lowest terms: scaling a sum and its denominator
    alike changes none of the family roundings.  Factor 1 returns the row
    itself."""
    if factor == 1:
        return row
    terms, den = row
    return (tuple((col, num * factor.numerator) for col, num in terms),
            den * factor.denominator)


def round_row(row: IntegerRow, state: Sequence[int] | Mapping[int, int],
              ratio: Callable[[int, int], int]) -> int:
    """The row applied to state, rounded by a `KindRule.ratio` map; exact."""
    terms, den = row
    acc = 0
    for col, num in terms:
        acc += num * state[col]
    return ratio(acc, den)


# ---------------------------------------------------------------------------
# Programs


@dataclass(frozen=True)
class VarLayout:
    """Slot assignment for the program variables of an n-variable, l-operator
    lowering: assignment bits, the evaluated-matrix bit, both suffix-value
    banks, carry bits, the scratch pools, and the constant-true slot."""

    n: int
    l: int

    def x(self, i: int) -> int:
        return i - 1

    @property
    def psi(self) -> int:
        return self.n

    def s0(self, i: int) -> int:
        return self.n + 1 + (i - 1)

    def s1(self, i: int) -> int:
        return 2 * self.n + 1 + (i - 1)

    def c(self, i: int) -> int:
        return 3 * self.n + 1 + (i - 1)

    def psi_aux(self, j: int) -> int:
        return 4 * self.n + 1 + j

    def t(self, j: int) -> int:
        return 4 * self.n + 1 + self.l + j

    def a(self, j: int) -> int:
        return 4 * self.n + 5 + self.l + j

    @property
    def b1(self) -> int:
        return 4 * self.n + 13 + self.l

    @property
    def const(self) -> int:
        return 4 * self.n + 14 + self.l

    @property
    def total(self) -> int:
        return 4 * self.n + 15 + self.l

    def name(self, idx: int) -> str:
        n, l = self.n, self.l
        if idx < n:
            return f"x{idx + 1}"
        if idx == n:
            return "psi"
        if idx < 2 * n + 1:
            return f"s0_{idx - n}"
        if idx < 3 * n + 1:
            return f"s1_{idx - 2 * n}"
        if idx < 4 * n + 1:
            return f"c{idx - 3 * n}"
        if idx < 4 * n + 1 + l:
            return f"p{idx - (4 * n + 1)}"
        if idx < 4 * n + 5 + l:
            return f"t{idx - (4 * n + 1 + l)}"
        if idx < 4 * n + 13 + l:
            return f"a{idx - (4 * n + 5 + l)}"
        if idx == self.b1:
            return "b1"
        if idx == self.const:
            return "const"
        raise IndexError(idx)


Instruction = dict[int, IntegerRow]


@dataclass(frozen=True)
class Program:
    """A straight-line boolean program over affine-then-round assignments.

    One instruction updates its listed variables simultaneously (reads see the
    previous state) and leaves every other variable unchanged.
    """

    layout: VarLayout
    family: GadgetFamily
    instructions: tuple[Instruction, ...]

    @property
    def var_count(self) -> int:
        return self.layout.total

    @property
    def step_count(self) -> int:
        return len(self.instructions)


def _leaf_operand(node: BoolExpr, layout: VarLayout) -> Operand:
    if isinstance(node, Var):
        return Operand.of(layout.x(node.index))
    if isinstance(node, Const):
        return Operand.true() if node.value else Operand.false()
    raise InternalInvariantError("operator operands must be lowered first")


def lower_gadgets(
    expr: BoolExpr,
    family: GadgetFamily,
    layout: VarLayout,
) -> list[tuple[int, IntegerRow]]:
    """Single-assignment rows evaluating expr, in dependency order.

    Every operator node gets one row; non-root nodes write scratch slots in
    the evaluation pool, the root writes the evaluated-matrix slot.
    """
    rows: list[tuple[int, IntegerRow]] = []
    next_aux = [0]

    def lower(node: BoolExpr, target: Optional[int]) -> Operand:
        if isinstance(node, (Var, Const)):
            return _leaf_operand(node, layout)
        if target is None:
            target = layout.psi_aux(next_aux[0])
            next_aux[0] += 1
        if isinstance(node, Not):
            u = lower(node.sub, None)
            rows.append((target, not_row(u, layout.const)))
        elif isinstance(node, And):
            u = lower(node.left, None)
            v = lower(node.right, None)
            rows.append((target, and_row(family, u, v, layout.const)))
        else:
            u = lower(node.left, None)
            v = lower(node.right, None)
            rows.append((target, or_row(family, u, v, layout.const)))
        return Operand.of(target)

    if isinstance(expr, (Var, Const)):
        return []
    # the root writes psi directly; children go to the scratch pool
    lower(expr, layout.psi)
    if next_aux[0] > layout.l:
        raise InternalInvariantError("scratch pool overflow in the lowering")
    return rows


def lower_qbf_to_program(formula: QbfFormula, family: GadgetFamily) -> Program:
    """Lower a QBF to the sweep program enumerating assignments in binary order.

    The instruction count is 3n+1+l and the variable count 4n+15+l, where n is
    the (canonical) prefix length and l the operator count of the matrix.
    """
    formula = formula if formula.is_canonical() else canonicalize(formula)
    n = len(formula.prefix)
    l = op_count(formula.matrix)
    layout = VarLayout(n, l)
    instructions: list[Instruction] = []

    # evaluate the matrix into psi, one operator per instruction
    for target, row in lower_gadgets(formula.matrix, family, layout):
        instructions.append({target: row})

    psi_op = Operand.of(layout.psi) if l else _leaf_operand(formula.matrix, layout)

    xn = layout.x(n)
    f = family
    one = layout.const

    # store psi into the leaf bank for the current x_n, then advance x_n
    step_a: Instruction = {
        layout.t(0): or_row(f, Operand.of(xn), psi_op, one),
        layout.t(1): or_row(f, Operand.neg(xn), Operand.of(layout.s0(n)), one),
        layout.t(2): or_row(f, Operand.neg(xn), psi_op, one),
        layout.t(3): or_row(f, Operand.of(xn), Operand.of(layout.s1(n)), one),
    }
    step_b: Instruction = {
        layout.s0(n): and_row(f, Operand.of(layout.t(0)), Operand.of(layout.t(1)), one),
        layout.s1(n): and_row(f, Operand.of(layout.t(2)), Operand.of(layout.t(3)), one),
        xn: not_row(Operand.of(xn), one),
        layout.c(n): copy_row(Operand.of(xn), one),
    }
    instructions.append(step_a)
    instructions.append(step_b)

    # ripple the carry down, collapsing suffix values as it passes
    for i in range(n - 1, 0, -1):
        xi = layout.x(i)
        ci = layout.c(i)
        carry = layout.c(i + 1)
        s0i, s1i = layout.s0(i), layout.s1(i)
        s0up, s1up = layout.s0(i + 1), layout.s1(i + 1)
        combine = and_row if i % 2 == 0 else or_row
        a = layout.a
        instructions.append(
            {
                a(0): and_row(f, Operand.of(carry), Operand.neg(xi), one),
                a(1): and_row(f, Operand.of(carry), Operand.of(xi), one),
                a(2): combine(f, Operand.of(s0up), Operand.of(s1up), one),
                a(3): or_row(f, Operand.neg(carry), Operand.neg(xi), one),
                a(4): or_row(f, Operand.of(carry), Operand.of(xi), one),
                ci: and_row(f, Operand.of(carry), Operand.of(xi), one),
            }
        )
        instructions.append(
            {
                a(5): or_row(f, Operand.neg(a(0)), Operand.of(a(2)), one),
                a(6): or_row(f, Operand.of(a(0)), Operand.of(s0i), one),
                a(7): or_row(f, Operand.neg(a(1)), Operand.of(a(2)), one),
                a(0): or_row(f, Operand.of(a(1)), Operand.of(s1i), one),
                carry: zero_row(),
            }
        )
        instructions.append(
            {
                xi: and_row(f, Operand.of(a(3)), Operand.of(a(4)), one),
                s0i: and_row(f, Operand.of(a(5)), Operand.of(a(6)), one),
                s1i: and_row(f, Operand.of(a(7)), Operand.of(a(0)), one),
            }
        )

    # combine the two branches of x_1 and broadcast success everywhere
    instructions.append(
        {
            layout.b1: and_row(
                f, Operand.of(layout.s0(1)), Operand.of(layout.s1(1)), one
            )
        }
    )
    sweep: Instruction = {}
    for v in range(layout.total):
        sweep[v] = or_row(f, Operand.of(layout.b1), Operand.of(v), one)
    instructions.append(sweep)

    expected = 3 * n + 1 + l
    if len(instructions) != expected:
        raise InternalInvariantError(
            f"instruction count {len(instructions)} != {expected}"
        )
    return Program(layout, family, tuple(instructions))


# ---------------------------------------------------------------------------
# Explosion into one matrix


@dataclass(frozen=True)
class HardnessInstance:
    """A sparse rounded linear system carrying one sweep instruction per step.

    The state is m stacked copies of the program variables; the single
    nonzero copy advances one position per step, through instruction j on
    hop j. The target is all-ones in copy zero.  Each matrix row is the
    gadget row in unscaled_rows times factor.
    """

    program: Program
    unscaled_rows: tuple[IntegerRow, ...]
    initial: tuple[int, ...]
    target: tuple[int, ...]
    factor: Fraction = Fraction(1)

    @property
    def dimension(self) -> int:
        return len(self.unscaled_rows)

    @property
    def rounding(self) -> ArgandRounding:
        return ArgandRounding(self.program.family.rounding_kind)

    @cached_property
    def integer_rows(self) -> tuple[tuple[IntegerRow, ...], tuple[tuple[int, ...], ...]]:
        """The rows with the factor folded in by `scaled_row`, and for each
        column the rows that read it; built once per instance."""
        rows = tuple(scaled_row(row, self.factor) for row in self.unscaled_rows)
        readers: list[list[int]] = [[] for _ in rows]
        for r, (terms, _den) in enumerate(rows):
            for col, _num in terms:
                readers[col].append(r)
        return rows, tuple(map(tuple, readers))

    @cached_property
    def rows(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """The unscaled rows as sorted (column, Fraction) entries: the view
        the JSON output reads."""
        return tuple(tuple((col, Fraction(num, den)) for col, num in terms)
                     for terms, den in self.unscaled_rows)


def explode_program_to_matrix(program: Program) -> HardnessInstance:
    t = program.var_count
    m = program.step_count
    rows: list[IntegerRow] = []
    for copy in range(m):
        hop = (copy - 1) % m
        instr = program.instructions[hop]
        src = hop * t
        for v in range(t):
            # a variable the instruction does not write copies through
            terms, den = instr.get(v, (((v, 1),), 1))
            rows.append((tuple((src + col, num) for col, num in terms), den))
    initial = [0] * (m * t)
    initial[program.layout.const] = 1
    target = [0] * (m * t)
    for v in range(t):
        target[v] = 1
    return HardnessInstance(program, tuple(rows), tuple(initial), tuple(target))


def hardness_step(instance: HardnessInstance, state: Sequence[int]) -> tuple[int, ...]:
    """One rounded step of the system.  Only the rows that read a nonzero
    entry are evaluated: any other row sums to 0, which every family rounds
    to 0, so the step is exact on every integer state, reachable or not."""
    rows, readers = instance.integer_rows
    ratio = RULES[instance.program.family.rounding_kind].ratio
    out = [0] * len(rows)
    for r in {r for col in compress(range(len(state)), state) for r in readers[col]}:
        out[r] = round_row(rows[r], state, ratio)
    return tuple(out)


def decide_hardness(instance: HardnessInstance, step_bound: int) -> tuple[bool, Optional[int]]:
    """Reachability of the all-ones copy-zero target within step_bound steps.

    The orbit stops early at its first repeated state, after which the
    target can no longer come.  Reaching step_bound answers the question
    too, so the cap counts as a conclusion.
    """
    verdict = iterate(
        lambda state: hardness_step(instance, state),
        instance.initial,
        instance.target,
        (),
        cap=step_bound,
        cap_is_state_bound=True,
    )
    if isinstance(verdict, Reached):
        return True, verdict.step
    return False, None


def _validate_row(
    row: IntegerRow,
    const_slot: Optional[int],
    family: GadgetFamily,
    factor: Fraction,
    description: str,
) -> None:
    free = [col for col, _num in row[0] if col != const_slot]
    if len(free) > 4:
        raise InternalInvariantError("unexpectedly wide gadget row")
    scaled = scaled_row(row, factor)
    ratio = RULES[family.rounding_kind].ratio
    for mask in range(1 << len(free)):
        assignment = {c: (mask >> i) & 1 for i, c in enumerate(free)}
        if const_slot is not None:
            assignment[const_slot] = 1
        base = round_row(row, assignment, ratio)
        if base not in (0, 1):
            raise GadgetBrokenError(
                f"{description}: non-boolean base value {base} on {assignment}"
            )
        value = round_row(scaled, assignment, ratio)
        if value != base:
            raise GadgetBrokenError(
                f"{description}: factor {factor} changes {assignment} "
                f"from {base} to {value}"
            )


def perturb(instance: HardnessInstance, factor: Fraction) -> HardnessInstance:
    """Scale every matrix entry, validating that each row still rounds to the
    same boolean on every boolean input (constant slot held at one).  The
    check depends only on a row's shape: its denominator, the numerator of
    the constant column and the sorted free numerators."""
    factor = Fraction(factor)
    if factor <= 0:
        raise ValueError("the perturbation factor must be positive")
    combined = instance.factor * factor
    program = instance.program
    layout = program.layout
    _validate_row((((0, 1),), 1), None, program.family, combined, "identity copy row")
    # the first row of a shape stands for the rest and is the first to fail
    shapes = set()
    for step_index, instr in enumerate(program.instructions):
        for target, row in instr.items():
            terms, den = row
            shape = (den, dict(terms).get(layout.const, 0),
                     tuple(sorted(num for col, num in terms if col != layout.const)))
            if shape in shapes:
                continue
            shapes.add(shape)
            _validate_row(
                row,
                layout.const,
                program.family,
                combined,
                f"instruction {step_index}, slot {layout.name(target)}",
            )
    return replace(instance, factor=combined)


def compile_qbf(formula: QbfFormula, family: GadgetFamily) -> HardnessInstance:
    return explode_program_to_matrix(lower_qbf_to_program(formula, family))
