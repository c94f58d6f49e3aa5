"""The README's user-facing example runs against the library as it is."""

import pathlib
from fractions import Fraction

from torelli.graded import WeightedPolynomial

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    # the fenced python block under "## Library": each line that is not an
    # import is evaluated, and its value is the one its comment states
    library = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = library.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    stated = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if code.startswith(("from ", "import ")):
            exec(code, namespace)
        elif code.strip():
            stated.append((eval(code, namespace), comment.strip()))
    (l_2, l_2_comment), (bound, bound_comment), (coefficient, coefficient_comment) = stated
    p_1 = WeightedPolynomial.variable("p_1", 4)
    p_2 = WeightedPolynomial.variable("p_2", 8)
    assert l_2_comment == "7/45 p_2 - 1/45 p_1^2, exact"
    assert l_2 == p_2 * Fraction(7, 45) - p_1**2 * Fraction(1, 45)
    assert (bound, bound_comment) == (11, "11")
    assert (coefficient, coefficient_comment) == (1, "1")
