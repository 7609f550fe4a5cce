#!/usr/bin/env python3
"""Unit tests for rrp_lint and rrp_lint_ast: each rule must fire on a
seeded violation and stay quiet on clean input, so CI can trust a clean
run.  The AST rules are tested twice: rule logic on synthetic Node trees
(runs everywhere, no libclang needed) and end-to-end on real parses
(skipped when libclang is unavailable)."""

import contextlib
import io
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import rrp_lint  # noqa: E402
import rrp_lint_ast  # noqa: E402
from rrp_lint_ast import FileContext, Node, link_parents  # noqa: E402

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
)


class FakeTree:
    """A throwaway source tree (no git) for seeding violations."""

    def __init__(self):
        self._dir = tempfile.TemporaryDirectory(prefix="rrp_lint_test_")
        self.root = self._dir.name

    def write(self, relpath, content):
        path = os.path.join(self.root, relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)

    def cleanup(self):
        self._dir.cleanup()


class RuleTests(unittest.TestCase):
    def setUp(self):
        self.tree = FakeTree()
        self.addCleanup(self.tree.cleanup)

    def rules_fired(self):
        return {v.rule for v in rrp_lint.lint(self.tree.root)}

    def test_clean_tree_passes(self):
        self.tree.write(
            "src/lp/ok.cpp",
            '#include "lp/ok.hpp"\n'
            "double f(double x) { return x * 2.0; }\n",
        )
        self.tree.write(
            "src/lp/ok.hpp", "#pragma once\ndouble f(double x);\n"
        )
        self.assertEqual(rrp_lint.lint(self.tree.root), [])

    def test_abort_in_library_fires(self):
        self.tree.write(
            "src/core/bad.cpp",
            "#include <cstdlib>\nvoid f() { std::abort(); }\n",
        )
        self.assertIn("no-abort-assert", self.rules_fired())

    def test_raw_assert_in_library_fires(self):
        self.tree.write(
            "src/core/bad.cpp",
            "#include <cassert>\nvoid f(int x) { assert(x > 0); }\n",
        )
        self.assertIn("no-abort-assert", self.rules_fired())

    def test_static_assert_is_allowed(self):
        self.tree.write(
            "src/core/ok.cpp",
            "static_assert(sizeof(double) == 8, \"ieee754\");\n",
        )
        self.assertEqual(rrp_lint.lint(self.tree.root), [])

    def test_abort_in_comment_is_allowed(self):
        self.tree.write(
            "src/core/ok.cpp",
            "// library code never calls std::abort().\n"
            "/* nor assert(x) */\n"
            'const char* s = "abort(";\n',
        )
        self.assertEqual(rrp_lint.lint(self.tree.root), [])

    def test_abort_outside_library_is_allowed(self):
        self.tree.write(
            "tests/test_x.cpp", "void f() { std::abort(); }\n"
        )
        self.assertNotIn("no-abort-assert", self.rules_fired())

    def test_float_in_solver_numerics_fires(self):
        self.tree.write(
            "src/milp/bad.cpp", "float relax(float x) { return x; }\n"
        )
        self.assertIn("no-float-numerics", self.rules_fired())

    def test_float_outside_numeric_dirs_is_allowed(self):
        self.tree.write(
            "src/common/ok.cpp", "float narrow(float x) { return x; }\n"
        )
        self.assertNotIn("no-float-numerics", self.rules_fired())

    def test_naked_new_fires(self):
        self.tree.write(
            "src/core/bad.cpp", "int* f() { return new int(3); }\n"
        )
        self.assertIn("no-naked-new", self.rules_fired())

    def test_missing_pragma_once_fires(self):
        self.tree.write("src/core/bad.hpp", "int f();\n")
        self.assertIn("pragma-once", self.rules_fired())

    def test_ifndef_guard_fires(self):
        self.tree.write(
            "src/core/bad.hpp",
            "#ifndef RRP_BAD_HPP\n#define RRP_BAD_HPP\n#pragma once\n"
            "#endif\n",
        )
        self.assertIn("pragma-once", self.rules_fired())

    def test_raw_clock_outside_common_fires(self):
        self.tree.write(
            "src/lp/bad.cpp",
            "#include <chrono>\n"
            "double t() { return std::chrono::steady_clock::now()"
            ".time_since_epoch().count(); }\n",
        )
        self.assertIn("no-raw-clock", self.rules_fired())

    def test_raw_clock_in_tests_fires(self):
        self.tree.write(
            "tests/test_bad.cpp",
            "auto t0 = std::chrono::high_resolution_clock::now();\n",
        )
        self.assertIn("no-raw-clock", self.rules_fired())

    def test_raw_clock_in_common_is_allowed(self):
        self.tree.write(
            "src/common/deadline.cpp",
            "#include <chrono>\n"
            "double now() { return std::chrono::steady_clock::now()"
            ".time_since_epoch().count(); }\n",
        )
        self.assertNotIn("no-raw-clock", self.rules_fired())

    def test_raw_clock_in_comment_or_string_is_allowed(self):
        self.tree.write(
            "src/lp/ok.cpp",
            "// never call steady_clock::now( ) here\n"
            'const char* s = "system_clock::now(";\n',
        )
        self.assertNotIn("no-raw-clock", self.rules_fired())

    def test_committed_build_artifact_fires(self):
        self.tree.write("build/CMakeCache.txt", "CMAKE_BUILD_TYPE=Release\n")
        self.tree.write("src/obj.o", "\x7fELF")
        rules = self.rules_fired()
        self.assertIn("no-build-artifacts", rules)
        violations = [
            v
            for v in rrp_lint.lint(self.tree.root)
            if v.rule == "no-build-artifacts"
        ]
        self.assertEqual(len(violations), 2)


    def test_gitignored_build_trees_skipped_without_git(self):
        # An exported tree (no git) with build trees next to the sources:
        # the walk honours the root .gitignore instead of reporting every
        # build output as a committed artifact.
        self.tree.write(".gitignore", "# build\nbuild/\n.bench_build/\n*.o\n")
        self.tree.write("build/CMakeCache.txt", "CMAKE_BUILD_TYPE=Release\n")
        self.tree.write(".bench_build/perfbench/CMakeFiles/x.o", "\x7fELF")
        self.tree.write("src/lp/obj.o", "\x7fELF")
        self.tree.write("src/lp/ok.hpp", "#pragma once\n")
        self.assertEqual(
            sorted(rrp_lint.tracked_files(self.tree.root)),
            [".gitignore", "src/lp/ok.hpp"],
        )
        self.assertEqual(rrp_lint.lint(self.tree.root), [])


class CliTests(unittest.TestCase):
    def test_missing_root_is_an_error_not_clean(self):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            rc = rrp_lint.main(["/nonexistent/lint/root"])
        self.assertEqual(rc, 2)
        self.assertIn("no such directory", err.getvalue())


class RepoTests(unittest.TestCase):
    def test_repository_is_clean(self):
        violations = rrp_lint.lint(REPO_ROOT)
        self.assertEqual(
            violations, [], "\n".join(str(v) for v in violations)
        )


# ---------------------------------------------------------------------------
# AST lint: rule logic on synthetic Node trees (libclang-free).
# ---------------------------------------------------------------------------


def N(kind, *children, **kw):
    """Shorthand Node constructor for synthetic trees."""
    return Node(kind=kind, children=list(children), **kw)


def fired(tree, path, allow=None):
    root = link_parents(N("TRANSLATION_UNIT", tree))
    ctx = FileContext(path=path, allow=allow or {})
    return {f.rule for f in rrp_lint_ast.run_rules(root, ctx)}


class AstRawSyncPrimitiveTests(unittest.TestCase):
    def test_std_mutex_member_fires(self):
        tree = N("FIELD_DECL", spelling="mu_", type="std::mutex", line=4)
        self.assertIn("raw-sync-primitive", fired(tree, "src/milp/x.cpp"))

    def test_libcxx_inline_namespace_fires(self):
        tree = N(
            "VAR_DECL",
            spelling="lk",
            type="std::__1::unique_lock<std::__1::mutex>",
            line=2,
        )
        self.assertIn("raw-sync-primitive", fired(tree, "tests/t.cpp"))

    def test_sync_home_is_exempt(self):
        tree = N("FIELD_DECL", type="std::condition_variable", line=9)
        self.assertNotIn(
            "raw-sync-primitive", fired(tree, "src/common/sync.hpp")
        )

    def test_wrapped_types_pass(self):
        tree = N("FIELD_DECL", spelling="mu_", type="rrp::Mutex", line=4)
        self.assertNotIn("raw-sync-primitive", fired(tree, "src/milp/x.cpp"))

    def test_lookalike_names_pass(self):
        # my::mutex or a spelling containing "mutex" must not fire.
        tree = N("VAR_DECL", spelling="m", type="rrpd::mutex_stats", line=1)
        self.assertNotIn("raw-sync-primitive", fired(tree, "src/core/x.cpp"))

    def test_decl_and_type_ref_same_line_reported_once(self):
        tree = N(
            "VAR_DECL",
            N("TYPE_REF", type="std::mutex", line=7),
            spelling="mu",
            type="std::mutex",
            line=7,
        )
        root = link_parents(N("TRANSLATION_UNIT", tree))
        ctx = FileContext(path="src/lp/x.cpp")
        hits = [
            f
            for f in rrp_lint_ast.run_rules(root, ctx)
            if f.rule == "raw-sync-primitive"
        ]
        self.assertEqual(len(hits), 1)


class AstUnnamedLockTemporaryTests(unittest.TestCase):
    def _temporary(self, type_spelling):
        # CompoundStmt > ExprWithCleanups (UNEXPOSED_EXPR) > ctor expr:
        # the shape libclang gives `MutexLock{mu};` as a statement.
        return N(
            "COMPOUND_STMT",
            N(
                "UNEXPOSED_EXPR",
                N(
                    "CXX_FUNCTIONAL_CAST_EXPR",
                    type=type_spelling,
                    line=3,
                ),
            ),
        )

    def test_discarded_mutexlock_temporary_fires(self):
        tree = self._temporary("rrp::MutexLock")
        self.assertIn("unnamed-lock-temporary", fired(tree, "src/lp/x.cpp"))

    def test_discarded_std_lock_guard_fires(self):
        tree = self._temporary("std::lock_guard<std::mutex>")
        self.assertIn("unnamed-lock-temporary", fired(tree, "tests/t.cpp"))

    def test_named_lock_passes(self):
        tree = N(
            "COMPOUND_STMT",
            N(
                "DECL_STMT",
                N(
                    "VAR_DECL",
                    N("CALL_EXPR", type="rrp::MutexLock", line=3),
                    spelling="lock",
                    type="rrp::MutexLock",
                    line=3,
                ),
            ),
        )
        self.assertNotIn(
            "unnamed-lock-temporary", fired(tree, "src/lp/x.cpp")
        )

    def test_lock_passed_as_argument_passes(self):
        tree = N(
            "COMPOUND_STMT",
            N(
                "CALL_EXPR",
                N("CXX_TEMPORARY_OBJECT_EXPR", type="rrp::MutexLock", line=3),
                spelling="with_lock",
                line=3,
            ),
        )
        self.assertNotIn(
            "unnamed-lock-temporary", fired(tree, "src/lp/x.cpp")
        )


class AstSolverDeadlineParamTests(unittest.TestCase):
    def _solver(self, name, *param_types):
        params = [
            N("PARM_DECL", type=t, line=2) for t in param_types
        ]
        fn = N("FUNCTION_DECL", *params, spelling=name, line=2)
        return N("NAMESPACE", fn, spelling="core", line=1)

    def test_solver_without_deadline_fires(self):
        tree = self._solver("solve_fast", "const rrp::core::DrrpInstance &")
        self.assertIn(
            "solver-deadline-param", fired(tree, "src/core/fast.hpp")
        )

    def test_deadline_param_passes(self):
        tree = self._solver(
            "solve_fast",
            "const rrp::core::DrrpInstance &",
            "const rrp::common::Deadline &",
        )
        self.assertNotIn(
            "solver-deadline-param", fired(tree, "src/core/fast.hpp")
        )

    def test_options_carrier_passes(self):
        tree = self._solver(
            "solve", "const rrp::milp::Model &", "const rrp::milp::BnbOptions &"
        )
        self.assertNotIn(
            "solver-deadline-param", fired(tree, "src/milp/bnb.hpp")
        )

    def test_non_solver_names_pass(self):
        tree = self._solver("no_plan_fleet", "const std::vector<int> &")
        self.assertNotIn(
            "solver-deadline-param", fired(tree, "src/core/fleet.hpp")
        )

    def test_source_files_and_other_dirs_pass(self):
        tree = self._solver("solve_fast", "int")
        self.assertNotIn(
            "solver-deadline-param", fired(tree, "src/core/fast.cpp")
        )
        self.assertNotIn(
            "solver-deadline-param", fired(tree, "src/lp/fast.hpp")
        )

    def test_method_named_solve_passes(self):
        # Member functions are CXX_METHOD (and sit under CLASS_DECL);
        # the rule targets free functions only.
        fn = N(
            "CXX_METHOD",
            N("PARM_DECL", type="int", line=3),
            spelling="solve",
            line=3,
        )
        tree = N("CLASS_DECL", fn, spelling="Solver", line=1)
        self.assertNotIn(
            "solver-deadline-param", fired(tree, "src/milp/bnb.hpp")
        )


class AstFloatEqualityTests(unittest.TestCase):
    def _cmp(self, opcode, lhs, rhs, line=5):
        return N(
            "BINARY_OPERATOR", lhs, rhs, opcode=opcode, line=line,
            end_line=line,
        )

    def _ref(self, spelling="x", type="double"):
        return N("DECL_REF_EXPR", spelling=spelling, type=type, line=5)

    def test_exact_double_equality_fires(self):
        tree = self._cmp("==", self._ref("a"), self._ref("b"))
        self.assertIn("float-equality", fired(tree, "src/lp/simplex.cpp"))

    def test_exact_double_inequality_fires(self):
        tree = self._cmp("!=", self._ref("a"), self._ref("b"))
        self.assertIn("float-equality", fired(tree, "src/milp/bnb.cpp"))

    def test_literal_zero_is_exempt(self):
        zero = N(
            "UNEXPOSED_EXPR",
            N("FLOATING_LITERAL", type="double", tokens=("0.0",), line=5),
            type="double",
            line=5,
        )
        tree = self._cmp("==", self._ref("coeff"), zero)
        self.assertNotIn("float-equality", fired(tree, "src/lp/model.cpp"))

    def test_nonzero_literal_fires(self):
        one = N(
            "UNEXPOSED_EXPR",
            N("FLOATING_LITERAL", type="double", tokens=("1.0",), line=5),
            type="double",
            line=5,
        )
        tree = self._cmp("==", self._ref("ratio"), one)
        self.assertIn("float-equality", fired(tree, "src/lp/model.cpp"))

    def test_infinity_sentinel_is_exempt(self):
        tree = self._cmp(
            "==", self._ref("bound"), self._ref("kInfinity")
        )
        self.assertNotIn("float-equality", fired(tree, "src/lp/model.cpp"))

    def test_negated_infinity_sentinel_is_exempt(self):
        neg = N(
            "UNARY_OPERATOR",
            self._ref("kInfinity"),
            type="double",
            line=5,
        )
        tree = self._cmp("==", self._ref("lo"), neg)
        self.assertNotIn("float-equality", fired(tree, "src/lp/model.cpp"))

    def test_allow_comment_suppresses(self):
        tree = self._cmp("==", self._ref("a"), self._ref("b"))
        rules = fired(
            tree, "src/milp/bnb.cpp", allow={5: {"float-equality"}}
        )
        self.assertNotIn("float-equality", rules)

    def test_allow_comment_on_expression_tail_suppresses(self):
        # Multi-line comparison: the allow() marker may sit on any line
        # the expression covers.
        tree = self._cmp("==", self._ref("a"), self._ref("b"), line=5)
        tree.end_line = 6
        rules = fired(
            tree, "src/milp/bnb.cpp", allow={6: {"float-equality"}}
        )
        self.assertNotIn("float-equality", rules)

    def test_integer_comparison_passes(self):
        tree = self._cmp(
            "==",
            self._ref("n", type="unsigned long"),
            self._ref("m", type="unsigned long"),
        )
        self.assertNotIn("float-equality", fired(tree, "src/lp/x.cpp"))

    def test_ordering_comparison_passes(self):
        tree = self._cmp("<", self._ref("a"), self._ref("b"))
        self.assertNotIn("float-equality", fired(tree, "src/lp/x.cpp"))

    def test_out_of_scope_dirs_pass(self):
        tree = self._cmp("==", self._ref("a"), self._ref("b"))
        self.assertNotIn(
            "float-equality", fired(tree, "src/core/wagner_whitin.cpp")
        )


class AstNakedNewDeleteTests(unittest.TestCase):
    def test_new_expression_fires(self):
        tree = N(
            "CXX_NEW_EXPR", tokens=("new", "int", "(", "3", ")"), line=2
        )
        self.assertIn("naked-new-delete", fired(tree, "src/core/x.cpp"))

    def test_placement_new_is_exempt(self):
        tree = N(
            "CXX_NEW_EXPR",
            tokens=("new", "(", "buf", ")", "Node", "(", ")"),
            line=2,
        )
        self.assertNotIn("naked-new-delete", fired(tree, "src/core/x.cpp"))

    def test_delete_expression_fires(self):
        tree = N("CXX_DELETE_EXPR", tokens=("delete", "p"), line=2)
        self.assertIn("naked-new-delete", fired(tree, "src/lp/x.cpp"))

    def test_outside_library_passes(self):
        tree = N(
            "CXX_NEW_EXPR", tokens=("new", "int", "(", "3", ")"), line=2
        )
        self.assertNotIn("naked-new-delete", fired(tree, "tests/t.cpp"))


class AstDenseMatrixTests(unittest.TestCase):
    DENSE = (
        "std::vector<std::vector<double, std::allocator<double>>, "
        "std::allocator<std::vector<double, std::allocator<double>>>>"
    )

    def test_dense_member_in_lp_fires(self):
        tree = N("FIELD_DECL", spelling="binv_", type=self.DENSE, line=9)
        self.assertIn("dense-matrix", fired(tree, "src/lp/simplex.hpp"))

    def test_libcxx_inline_namespace_fires(self):
        tree = N(
            "VAR_DECL",
            spelling="m",
            type="std::__1::vector<std::__1::vector<double>>",
            line=3,
        )
        self.assertIn("dense-matrix", fired(tree, "src/lp/x.cpp"))

    def test_outside_lp_layer_passes(self):
        tree = N("VAR_DECL", spelling="costs", type=self.DENSE, line=5)
        self.assertNotIn("dense-matrix", fired(tree, "src/core/eval.cpp"))
        self.assertNotIn("dense-matrix", fired(tree, "src/milp/x.cpp"))
        self.assertNotIn("dense-matrix", fired(tree, "tests/t.cpp"))

    def test_sparse_entry_columns_pass(self):
        tree = N(
            "FIELD_DECL",
            spelling="cols_",
            type="std::vector<std::vector<rrp::lp::Entry>>",
            line=4,
        )
        self.assertNotIn("dense-matrix", fired(tree, "src/lp/simplex.hpp"))

    def test_flat_vector_passes(self):
        tree = N(
            "VAR_DECL", spelling="w", type="std::vector<double>", line=2
        )
        self.assertNotIn("dense-matrix", fired(tree, "src/lp/simplex.cpp"))

    def test_allow_comment_suppresses(self):
        tree = N("VAR_DECL", spelling="scratch", type=self.DENSE, line=6)
        self.assertNotIn(
            "dense-matrix",
            fired(tree, "src/lp/x.cpp", allow={6: {"dense-matrix"}}),
        )

    def test_decl_and_type_ref_same_line_reported_once(self):
        tree = N(
            "VAR_DECL",
            N("TYPE_REF", type=self.DENSE, line=7),
            spelling="m",
            type=self.DENSE,
            line=7,
        )
        root = link_parents(N("TRANSLATION_UNIT", tree))
        ctx = FileContext(path="src/lp/x.cpp")
        hits = [
            f
            for f in rrp_lint_ast.run_rules(root, ctx)
            if f.rule == "dense-matrix"
        ]
        self.assertEqual(len(hits), 1)


class AstRawChronoTimingTests(unittest.TestCase):
    STEADY_TP = (
        "std::chrono::time_point<std::chrono::steady_clock, "
        "std::chrono::duration<long, std::ratio<1, 1000000000>>>"
    )

    def _now_call(self, type_spelling, line=4):
        return N(
            "CALL_EXPR", spelling="now", type=type_spelling, line=line
        )

    def test_steady_clock_now_fires(self):
        tree = self._now_call(self.STEADY_TP)
        self.assertIn("raw-chrono-timing", fired(tree, "bench/abl.cpp"))

    def test_aliased_clock_now_fires(self):
        # `using Clock = std::chrono::steady_clock; Clock::now();` —
        # canonical types see through the alias the regex rule misses.
        tree = self._now_call(self.STEADY_TP)
        self.assertIn("raw-chrono-timing", fired(tree, "src/core/x.cpp"))

    def test_libstdcxx_inline_namespace_fires(self):
        tree = self._now_call(
            "std::chrono::time_point<std::chrono::_V2::system_clock, "
            "std::chrono::duration<long, std::ratio<1, 1000000000>>>"
        )
        self.assertIn("raw-chrono-timing", fired(tree, "tests/t.cpp"))

    def test_libcxx_inline_namespace_fires(self):
        tree = self._now_call(
            "std::__1::chrono::time_point<"
            "std::__1::chrono::high_resolution_clock, "
            "std::__1::chrono::duration<long long, "
            "std::__1::ratio<1, 1000000000>>>"
        )
        self.assertIn("raw-chrono-timing", fired(tree, "tools/x.cpp"))

    def test_deadline_home_is_exempt(self):
        tree = self._now_call(self.STEADY_TP)
        self.assertNotIn(
            "raw-chrono-timing", fired(tree, "src/common/deadline.cpp")
        )

    def test_obs_layer_is_exempt(self):
        tree = self._now_call(self.STEADY_TP)
        self.assertNotIn(
            "raw-chrono-timing", fired(tree, "src/obs/trace.cpp")
        )

    def test_rrp_clock_wrapper_passes(self):
        # common::real_clock().now_seconds() is the sanctioned read.
        tree = N(
            "CALL_EXPR", spelling="now_seconds", type="double", line=4
        )
        self.assertNotIn("raw-chrono-timing", fired(tree, "bench/b.cpp"))

    def test_unrelated_now_passes(self):
        # A user-defined now() that never touches std::chrono clocks.
        tree = self._now_call("double")
        self.assertNotIn(
            "raw-chrono-timing", fired(tree, "bench/b.cpp")
        )

    def test_allow_comment_suppresses(self):
        tree = self._now_call(self.STEADY_TP, line=6)
        self.assertNotIn(
            "raw-chrono-timing",
            fired(tree, "bench/b.cpp", allow={6: {"raw-chrono-timing"}}),
        )

    def test_call_and_ref_same_line_reported_once(self):
        tree = N(
            "CALL_EXPR",
            N(
                "DECL_REF_EXPR",
                spelling="now",
                type=self.STEADY_TP + " ()",
                line=7,
            ),
            spelling="now",
            type=self.STEADY_TP,
            line=7,
        )
        root = link_parents(N("TRANSLATION_UNIT", tree))
        ctx = FileContext(path="bench/b.cpp")
        hits = [
            f
            for f in rrp_lint_ast.run_rules(root, ctx)
            if f.rule == "raw-chrono-timing"
        ]
        self.assertEqual(len(hits), 1)


class AstBatchSortTests(unittest.TestCase):
    def _sort_call(self, name="sort", line=4):
        return N("CALL_EXPR", spelling=name, type="void", line=line)

    def test_sort_in_price_distribution_fires(self):
        tree = self._sort_call()
        self.assertIn(
            "batch-sort", fired(tree, "src/core/price_distribution.cpp")
        )

    def test_stable_sort_fires(self):
        tree = self._sort_call("stable_sort")
        self.assertIn(
            "batch-sort", fired(tree, "src/core/price_distribution.hpp")
        )

    def test_outside_sliding_layer_passes(self):
        tree = self._sort_call()
        self.assertNotIn("batch-sort", fired(tree, "src/core/srrp.cpp"))
        self.assertNotIn("batch-sort", fired(tree, "src/lp/simplex.cpp"))

    def test_unrelated_call_passes(self):
        tree = N(
            "CALL_EXPR",
            spelling="snapshot",
            type="rrp::core::EmpiricalPriceDistribution",
            line=4,
        )
        self.assertNotIn(
            "batch-sort", fired(tree, "src/core/price_distribution.cpp")
        )

    def test_allow_comment_suppresses(self):
        tree = self._sort_call(line=6)
        self.assertNotIn(
            "batch-sort",
            fired(
                tree,
                "src/core/price_distribution.cpp",
                allow={6: {"batch-sort"}},
            ),
        )

    def test_call_and_ref_same_line_reported_once(self):
        tree = N(
            "CALL_EXPR",
            N("DECL_REF_EXPR", spelling="sort", type="void ()", line=7),
            spelling="sort",
            type="void",
            line=7,
        )
        root = link_parents(N("TRANSLATION_UNIT", tree))
        ctx = FileContext(path="src/core/price_distribution.cpp")
        hits = [
            f
            for f in rrp_lint_ast.run_rules(root, ctx)
            if f.rule == "batch-sort"
        ]
        self.assertEqual(len(hits), 1)


class AstHelperTests(unittest.TestCase):
    def test_parse_allow_comments(self):
        allow = rrp_lint_ast.parse_allow_comments(
            "double x;\n"
            "x == y;  // rrp-lint: allow(float-equality)\n"
            "// rrp-lint: allow(raw-sync-primitive, naked-new-delete)\n"
        )
        self.assertEqual(allow[2], {"float-equality"})
        self.assertEqual(
            allow[3], {"raw-sync-primitive", "naked-new-delete"}
        )
        self.assertNotIn(1, allow)

    def test_rule_names_are_registered(self):
        self.assertEqual(
            [name for name, _ in rrp_lint_ast.RULES],
            [
                "raw-sync-primitive",
                "unnamed-lock-temporary",
                "solver-deadline-param",
                "float-equality",
                "naked-new-delete",
                "dense-matrix",
                "batch-sort",
                "raw-chrono-timing",
            ],
        )


# ---------------------------------------------------------------------------
# AST lint: end-to-end on real libclang parses (skipped without libclang).
# ---------------------------------------------------------------------------

CINDEX = rrp_lint_ast.load_cindex()


@unittest.skipUnless(CINDEX is not None, "libclang not available")
class AstEndToEndTests(unittest.TestCase):
    def lint_snippet(self, code, pseudo_path, args=("-xc++", "-std=c++17")):
        with tempfile.NamedTemporaryFile(
            "w", suffix=".cpp", delete=False
        ) as f:
            f.write(code)
            path = f.name
        self.addCleanup(os.unlink, path)
        tree = rrp_lint_ast.build_tree(CINDEX, path, list(args))
        ctx = FileContext(
            path=pseudo_path,
            allow=rrp_lint_ast.parse_allow_comments(code),
        )
        return rrp_lint_ast.run_rules(tree, ctx)

    def test_raw_mutex_and_discarded_lock_fire(self):
        findings = self.lint_snippet(
            "#include <mutex>\n"
            "std::mutex g_m;\n"
            "void f() {\n"
            "  std::lock_guard<std::mutex>{g_m};\n"
            "}\n",
            "src/milp/fake.cpp",
        )
        rules = {f.rule for f in findings}
        self.assertIn("raw-sync-primitive", rules)
        self.assertIn("unnamed-lock-temporary", rules)

    def test_named_lock_does_not_fire_unnamed_rule(self):
        findings = self.lint_snippet(
            "#include <mutex>\n"
            "std::mutex g_m;\n"
            "void f() {\n"
            "  std::lock_guard<std::mutex> lock(g_m);\n"
            "}\n",
            "src/milp/fake.cpp",
        )
        rules = {f.rule for f in findings}
        self.assertNotIn("unnamed-lock-temporary", rules)

    def test_float_equality_and_exemptions(self):
        findings = self.lint_snippet(
            "constexpr double kInfinity = 1e300;\n"
            "bool f(double a, double b) {\n"
            "  bool x = (a == b);\n"
            "  bool y = (a == 0.0);\n"
            "  bool z = (a == kInfinity);\n"
            "  bool w = (a == b);  // rrp-lint: allow(float-equality)\n"
            "  return x && y && z && w;\n"
            "}\n",
            "src/lp/fake.cpp",
        )
        lines = [f.line for f in findings if f.rule == "float-equality"]
        self.assertEqual(lines, [3])

    def test_solver_without_deadline_param_fires(self):
        findings = self.lint_snippet(
            "namespace rrp::common { struct Deadline {}; }\n"
            "namespace rrp::core {\n"
            "int solve_thing(int horizon);\n"
            "int solve_bounded(int horizon,\n"
            "                  const rrp::common::Deadline& deadline);\n"
            "}\n",
            "src/core/fake.hpp",
        )
        hits = [f for f in findings if f.rule == "solver-deadline-param"]
        self.assertEqual([f.line for f in hits], [3])

    def test_aliased_chrono_clock_read_fires(self):
        findings = self.lint_snippet(
            "#include <chrono>\n"
            "using Clock = std::chrono::steady_clock;\n"
            "double wall() {\n"
            "  const auto t0 = Clock::now();\n"
            "  const auto t1 = std::chrono::steady_clock::now();\n"
            "  const auto t2 =\n"
            "      Clock::now();  // rrp-lint: allow(raw-chrono-timing)\n"
            "  return std::chrono::duration<double>(t1 - t0).count() +\n"
            "         std::chrono::duration<double>(t1 - t2).count();\n"
            "}\n",
            "bench/fake.cpp",
        )
        lines = sorted(
            f.line for f in findings if f.rule == "raw-chrono-timing"
        )
        self.assertEqual(lines, [4, 5])

    def test_naked_new_fires_and_placement_is_exempt(self):
        findings = self.lint_snippet(
            "#include <new>\n"
            "alignas(int) char buf[sizeof(int)];\n"
            "int* leak() { return new int(3); }\n"
            "int* place() { return new (buf) int(4); }\n"
            "void free_it(int* p) { delete p; }\n",
            "src/core/fake.cpp",
        )
        hits = sorted(
            f.line for f in findings if f.rule == "naked-new-delete"
        )
        self.assertEqual(hits, [3, 5])


@unittest.skipUnless(CINDEX is not None, "libclang not available")
class AstRepoTests(unittest.TestCase):
    def test_repository_is_ast_clean(self):
        args = rrp_lint_ast.default_args(REPO_ROOT)
        findings = []
        for path in rrp_lint_ast.lint_files(REPO_ROOT):
            findings.extend(
                rrp_lint_ast.lint_one(CINDEX, REPO_ROOT, path, args)
            )
        self.assertEqual(
            findings, [], "\n".join(str(f) for f in findings)
        )


if __name__ == "__main__":
    unittest.main()
