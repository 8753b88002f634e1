"""The README's library quick tour runs and says what the API returns."""

import ast
import pathlib
import re
from fractions import Fraction

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def run_tour():
    """The tour's namespace, and the value of each bare expression in order."""
    text = README.read_text()
    block = re.search(r"```python\n(.*?)```", text[text.index("## Library quick tour") :], re.S)
    assert block, "no python block under 'Library quick tour'"
    namespace, values = {}, []
    for stmt in ast.parse(block.group(1)).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    return namespace, values


def test_quick_tour_values():
    ns, values = run_tour()
    assert str(ns["form"]) == "d^1 · {1,2,3}"
    inf_sup, inf_conj, sss_size, sqp_asqp, nb, nb_exact, strict, fdtc = values
    assert inf_sup == (1, 2)
    assert inf_conj == 0
    assert sss_size == 20
    assert sqp_asqp == (False, True)
    assert type(nb).__name__ == "NbReport"
    assert (nb.nb_lower, nb.nb_upper, nb.nb_exact) == (1, 2, 2)
    assert nb_exact == 2
    assert strict is False and ns["report"].strictly_asqp.definitive
    assert (fdtc.lower, fdtc.upper) == (Fraction(1, 4), Fraction(1, 2))
    assert type(fdtc.lower) is Fraction and type(fdtc.upper) is Fraction
