"""Mutation guard: every mutant in MUTANTS must be caught by its tests.

Run from anywhere with ``python tests/mutants.py``; it needs pytest and the
packages the named tests import, and nothing else outside the standard
library.  Each row of MUTANTS names a file of ``src/rht``, an exact source
snippet, its replacement and the pytest node ids that must catch the change.
For each row the package is copied to a temporary directory, the snippet is
replaced once, and the named tests run against the copy in a subprocess;
they must fail (pytest exit status 1).  Before any mutant, all named tests
must pass against an unmutated copy, so a mutant is never "caught" by a
test that fails anyway.  A snippet that no longer matches exactly once is
an error, not a skip: a change that rewrites a mutated snippet re-points
its row.

Exit status: 0 when every mutant is caught, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rht"

# (file under src/rht, exact snippet, replacement, node ids that must fail)
MUTANTS = [
    # the stagewise loop stops one degree short of the cap
    ("models.py",
     "    for k in range(2, cap + 1):\n        new = adjoin(rho, k)",
     "    for k in range(2, cap):\n        new = adjoin(rho, k)",
     ["tests/test_models.py::test_wedge_dimensions_match_series_oracle",
      # both builders lose the same degree, so only the audit sees it
      "tests/test_models.py::"
      "test_minimal_and_bigraded_models_agree_per_degree[S2vS2]"]),
    # the bigraded rule adjoins only a degree's cokernel generators
    ("models.py",
     "    for s, keys in sorted(comp.items()):",
     "    for s, keys in sorted(comp.items())[:0]:",
     ["tests/test_models.py::test_cp2_bigraded_structure",
      "tests/test_models.py::test_wedge_ring_bigraded_stage_one"]),
    # decide_pi stops checking its rows against omega ^ eta = 0
    ("scalability.py",
     "            if _omega_wedge_row(ext, omega, four) != row:",
     "            if False:",
     ["tests/test_scalability.py::"
      "test_decide_pi_checks_each_row_against_the_wedge_equation"]),
    # a generator power is multiplied out one factor short
    ("cdga.py",
     "                    for _ in range(e - 1):",
     "                    for _ in range(e - 2):",
     ["tests/test_apply_terms_hypothesis.py::"
      "test_apply_terms_covers_powers_unit_and_vanishing_products"]),
    # a connected sum without its cross relations
    ("scalability.py",
     "        cross = tuple({(factor[p], factor[q]): _ONE}"
     " for p, q in self.cross_pairs())",
     "        cross = ()",
     ["tests/test_scalability.py::"
      "test_connected_sum_relations_match_element_products"]),
    # a transpose that loses row 0
    ("linalg.py",
     "        for i, x in col.items():\n            rows.setdefault(i, {})[j] = x",
     "        for i, x in col.items():\n            if i != 0:\n"
     "                rows.setdefault(i, {})[j] = x",
     ["tests/test_linalg.py::test_kernel_of_columns",
      "tests/test_linalg.py::test_solve_columns_consistent_and_not"]),
    # class coordinates that store zeros
    ("cohomology.py",
     "        out = {i: reduced[p] for i, p in enumerate(self.rep_pivots)\n"
     "               if p in reduced}",
     "        out = {i: reduced.get(p, 0) for i, p in enumerate(self.rep_pivots)}",
     ["tests/test_cohomology.py::test_class_coords_are_sparse_rows"]),
    # a Massey product of an inhomogeneous representative
    ("homotopy.py",
     '        if not e.is_homogeneous():\n'
     '            raise ValueError("representative is not homogeneous")\n',
     "",
     ["tests/test_homotopy.py::"
      "test_massey_rejects_an_inhomogeneous_representative"]),
    # a connected sum that reads any orientation as a sign
    ("scalability.py",
     "        if bad := [o for o in orientations if o not in (1, -1)]:",
     "        if bad := []:",
     ["tests/test_scalability.py::"
      "test_connected_sum_refuses_an_orientation_other_than_one_or_minus_one"]),
    # a singular duality pairing that passes
    ("presentations.py",
     "            if linalg.rank(mat) != len(left):",
     "            if False:",
     ["tests/test_presentations.py::test_duality_verification_passes_and_fails"]),
    # a zero denominator that reaches Fraction
    ("fileformat.py",
     "    if not q:\n        raise PresentationError(f\"zero denominator",
     "    if False:\n        raise PresentationError(f\"zero denominator",
     ["tests/test_fileformat.py::test_literals_in_any_script_read_alike"]),
    # a verify battery that no longer compares the pi nullspace dimensions
    ("verify.py",
     "        _require(d.nullspace_dim == dim,",
     "        _require(True,",
     ["tests/test_verify_faults.py::"
      "test_injected_fault_fails_with_pinned_detail[decide_pi]"]),
    # a failed internal check that escapes the command as a traceback
    ("cli.py",
     "    except AssertionError as exc:",
     "    except ZeroDivisionError as exc:",
     ["tests/test_cli.py::test_failed_self_audit_exits_1"]),
    # the indexed cross-product pass skips one degree of candidate masks
    ("scalability.py",
     "            for d2 in degrees:",
     "            for d2 in degrees[1:]:",
     ["tests/test_scalability.py::"
      "test_broken_witness_reports_are_pinned[csum_3_S2xS4]"]),
    # the indexed pass reports the last failing cross product, not the first
    ("scalability.py",
     "    p, q = next(pq for pq in ring.cross_pairs() if products.get(pq))",
     "    p, q = [pq for pq in ring.cross_pairs() if products.get(pq)][-1]",
     ["tests/test_scalability.py::"
      "test_broken_witness_reports_are_pinned[omega_3_10]"]),
    # the indexed pass always enumerates the subsets disjoint from a term
    ("scalability.py",
     "    if comb(len(free), d2) <= len(by_mask):",
     "    if True:",
     ["tests/test_scalability.py::"
      "test_cross_product_lookups_are_bounded_by_the_pairwise_count"]),
    # the duality certificate takes any coefficient in a top relation
    ("scalability.py",
     "        if not all(c in (1, -1) for rel in self.top_relations "
     "for c in rel.values()):",
     "        if False:",
     ["tests/test_scalability.py::"
      "test_connected_sum_duality_certificate_catches_a_fault"
      "[top_coefficient_2]"]),
    # the generic duality check stops at the fundamental degree
    ("presentations.py",
     "        for k in range(n + 1, n + top + 1):",
     "        for k in range(n + 1, n + 1):",
     ["tests/test_presentations.py::"
      "test_duality_verification_sees_degrees_above_the_fundamental_class"]),
    # adopt compares the source's generators by name but not by degree
    ("cdga.py",
     "g.name != mine[i].name\n                        or g.degree != mine[i].degree)",
     "g.name != mine[i].name)",
     ["tests/test_cdga.py::test_adopt_names_a_generator_it_lacks"]),
    # a whole-int integral divides without checking that i + 1 divides c
    ("homotopy.py",
     "        if type(c) is int and not c % (i + 1):",
     "        if type(c) is int:",
     ["tests/test_homotopy.py::test_integral_keeps_whole_quotients_as_ints"]),
    # an extension shares its parent's key-degree table instead of a copy
    ("cdga.py",
     "        out._degree_cache = dict(self._degree_cache)",
     "        out._degree_cache = self._degree_cache",
     ["tests/test_algebra_tables_hypothesis.py::"
      "test_key_degree_table_is_copied_by_extend"]),
    # the model audit stops at the cap, so injectivity at cap + 1 is unchecked
    ("cohomology.py",
     "    for j in range(0, cap + 2):",
     "    for j in range(0, cap + 1):",
     ["tests/test_cohomology.py::"
      "test_quasi_isomorphism_audit_is_injective_one_degree_above_the_cap"]),
    # the bigraded cokernel step misses the image of one stage-0 monomial
    ("models.py",
     "                          for mon in down_by_stage.get(0, ())])",
     "                          for mon in down_by_stage.get(0, ())[1:]])",
     ["tests/test_models.py::test_cp2_bigraded_structure"]),
    # an extension carries the basis of degree d + m, where products of a
    # new generator begin
    ("cdga.py",
     "            if n < bound:",
     "            if n <= bound:",
     ["tests/test_algebra_tables_hypothesis.py::"
      "test_extend_carries_bases_below_the_first_product_degree",
      "tests/test_algebra_tables_hypothesis.py::"
      "test_extension_bases_equal_a_fresh_enumeration"]),
    # DgaMorphism.extend checks none of the generators it appends
    ("cdga.py",
     "        out._check(start)",
     "        out._check(len(source.gens))",
     ["tests/test_algebra_tables_hypothesis.py::"
      "test_morphism_extend_refuses_what_the_constructor_refuses",
      "tests/test_homotopy.py::test_every_morphism_is_checked_at_construction"]),
    # the basis walk pops the exponent-0 branch first, so a basis no longer
    # lists the monomials without an old factor last, where extend puts them
    ("cdga.py",
     "            stack.append((start + 1, remaining, acc))\n"
     "            for e in range(1, top + 1):\n"
     "                stack.append((start + 1, remaining - e * deg,"
     " acc + ((start, e),)))\n",
     "            for e in range(1, top + 1):\n"
     "                stack.append((start + 1, remaining - e * deg,"
     " acc + ((start, e),)))\n"
     "            stack.append((start + 1, remaining, acc))\n",
     ["tests/test_cdga.py::test_basis_matches_recursive_order_on_fixtures",
      "tests/test_algebra_tables_hypothesis.py::"
      "test_extend_carries_bases_below_the_first_product_degree",
      "tests/test_algebra_tables_hypothesis.py::"
      "test_extension_bases_equal_a_fresh_enumeration"]),
    # the minus images of an equal-square witness square to +2 * volume
    ("scalability.py",
     "    images += [first - second for first, second in pairs[:minus]]",
     "    images += [first + second for first, second in pairs[:minus]]",
     ["tests/test_scalability.py::"
      "test_kernel_matches_oracle_on_every_witness[plane_sum_CP2_2_1]"]),
    # the CP^n witness bound loosened past n = 12
    ("scalability.py",
     "        if power > 12:",
     "        if power > 13:",
     ["tests/test_scalability.py::test_cp_n_witness_is_bounded"]),
    # adopt accepts a source whose generators it has, but not leading it
    ("cdga.py",
     "i >= len(mine) or g.name != mine[i].name",
     "i >= len(mine) or g.name not in self.index",
     ["tests/test_cdga.py::test_adopt_refuses_a_reordered_source",
      "tests/test_presentations.py::"
      "test_relations_of_a_reordered_algebra_are_refused"]),
]


def _copy_package(into: Path) -> Path:
    """Copy src/rht to ``into``/rht, without bytecode; returns the copy."""
    target = into / "rht"
    shutil.copytree(PACKAGE, target,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return target


def _run(src: Path, node_ids):
    """Run pytest on ``node_ids`` with ``src`` first on the import path."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    probe = subprocess.run(
        [sys.executable, "-c", "import rht; print(rht.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    if not probe.stdout.startswith(str(src)):
        raise RuntimeError(f"the copy under {src} is not the rht imported: "
                           f"{probe.stdout.strip() or probe.stderr.strip()}")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *node_ids], cwd=ROOT, env=env, capture_output=True, text=True)


def _mutate(path: Path, snippet: str, replacement: str) -> str | None:
    """Replace ``snippet`` in ``path``; an error message unless it occurs
    exactly once."""
    text = path.read_text()
    count = text.count(snippet)
    if count != 1:
        return f"snippet occurs {count} times in {path.name}, not once"
    path.write_text(text.replace(snippet, replacement))
    return None


def main() -> int:
    started = time.perf_counter()
    failures = []
    with tempfile.TemporaryDirectory(prefix="rht-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy_package(clean)
        all_ids = list(dict.fromkeys(i for row in MUTANTS for i in row[3]))
        baseline = _run(clean, all_ids)
        if baseline.returncode != 0:
            print(baseline.stdout[-3000:], baseline.stderr[-2000:])
            print("error: the named tests do not all pass unmutated")
            return 1
        for n, row in enumerate(MUTANTS):
            file, snippet, replacement, node_ids = row
            src = Path(tmp) / f"mutant{n}"
            copy = _copy_package(src)
            error = _mutate(copy / file, snippet, replacement)
            if error is None:
                result = _run(src, node_ids)
                if result.returncode != 1:
                    error = (f"survived (pytest exit {result.returncode})"
                             if result.returncode == 0 else
                             f"not caught by a failing test (pytest exit "
                             f"{result.returncode}):\n{result.stdout[-2000:]}"
                             f"{result.stderr[-2000:]}")
            label = f"{file}: {snippet.strip().splitlines()[0][:60]}"
            print(f"{'caught  ' if error is None else 'ERROR   '}{label}")
            if error is not None:
                print(f"        {error}")
                failures.append(row)
            shutil.rmtree(src)
    elapsed = time.perf_counter() - started
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants caught "
          f"in {elapsed:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
