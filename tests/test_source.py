"""Source-level contracts of the package."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "rankdec").glob("*.py"))


def test_sources_found():
    assert SRC


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.stem)
def test_no_assert_statement(path):
    # guards must raise a typed error: python -O strips assert statements
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statement at line(s) {lines}"


def _raised_name(node: ast.Raise):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.stem)
def test_no_raise_assertion_error(path):
    # an impossible state is a FalsificationAlarm, which callers map to
    # its own exit code; a bare AssertionError would read as a crash
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and node.exc is not None
             and _raised_name(node) == "AssertionError"]
    assert not lines, f"{path.name}: raise AssertionError at line(s) {lines}"


def _private_linalg_imports(tree):
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module == "rankdec.linalg"
                 or (node.level == 1 and node.module == "linalg"))
            for alias in node.names if alias.name.startswith("_")]


def test_linalg_privates_stay_in_linalg():
    # one elimination per element representation: other modules reach
    # the eliminations through RowSpace and the public field_* functions
    found = {path.stem: _private_linalg_imports(ast.parse(path.read_text()))
             for path in SRC if path.stem != "linalg"}
    offenders = {stem: names for stem, names in found.items() if names}
    assert not offenders, f"private names of rankdec.linalg imported: {offenders}"


def _trace_gram_calls(tree):
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "trace_gram"]


def test_trace_gram_read_in_subspaces_only():
    # trace duality is written once: outside the field layer that builds
    # the Gram matrix, only the subspace layer's trace kernel reads it
    found = {path.stem: _trace_gram_calls(ast.parse(path.read_text()))
             for path in SRC if path.stem not in ("fields", "subspaces")}
    offenders = {stem: lines for stem, lines in found.items() if lines}
    assert not offenders, f"trace_gram() called outside subspaces: {offenders}"


def _dims_of_coordinate_spaces(tree):
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "dim"
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", getattr(node.value.func, "attr", None))
            == "coordinate_space"]


def test_span_dimensions_through_span_dim():
    # a span's dimension is subspaces.span_dim, which reads small fields
    # off the point table: coordinate_space(...).dim takes 8-13 us for
    # three F_3^3 or F_(2^2)^3 entries, the table about 0.9 us
    found = {path.stem: _dims_of_coordinate_spaces(ast.parse(path.read_text()))
             for path in SRC if path.stem != "subspaces"}
    offenders = {stem: lines for stem, lines in found.items() if lines}
    assert not offenders, f"coordinate_space(...).dim outside subspaces: {offenders}"


#: the digit kernel and what feeds it: numpy's remainder of unsigned
#: words by a scalar is several times slower than its floor division
DIGIT_KERNEL = ("_reduce", "_rank_rows_digits", "_Kernel")


def test_no_remainder_in_the_digit_kernel():
    tree = ast.parse((SRC[0].parent / "enumeration.py").read_text())
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert set(DIGIT_KERNEL) <= set(defs), "digit kernel definitions renamed"
    found = {name: [node.lineno for node in ast.walk(defs[name])
                    if isinstance(getattr(node, "op", None), ast.Mod)]
             for name in DIGIT_KERNEL}
    offenders = {name: lines for name, lines in found.items() if lines}
    assert not offenders, f"% in the digit kernel (use _reduce): {offenders}"


def test_inverses_read_with_take():
    # fancy indexing inv[vc] takes about 25 us per (column, digit) step
    # on 6,643 uint8 words, inv.take(vc) about 17 us (numpy 2.4.6)
    tree = ast.parse((SRC[0].parent / "enumeration.py").read_text())
    kernel = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                  and node.name == "_rank_rows_digits")
    lines = [node.lineno for node in ast.walk(kernel)
             if isinstance(node, ast.Subscript)
             and isinstance(node.value, ast.Name) and node.value.id == "inv"]
    assert not lines, f"inv subscripted in _rank_rows_digits (use inv.take): {lines}"


def _calls_named(node, names):
    return [n.lineno for n in ast.walk(node)
            if isinstance(n, (ast.Attribute, ast.Name))
            and getattr(n, "attr", getattr(n, "id", None)) in names]


def test_no_argmax_in_the_digit_kernel():
    # each elimination step finds its pivot entry as the minimum of a
    # narrow per-entry key: argmax along the entries takes 150-171 us a
    # step on 6,643 words of 5 or 7 entries, the key 19-21 us (numpy 2.4.6)
    tree = ast.parse((SRC[0].parent / "enumeration.py").read_text())
    kernel = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                  and node.name == "_rank_rows_digits")
    lines = _calls_named(kernel, {"argmax"})
    assert not lines, f"argmax in _rank_rows_digits: {lines}"


def test_digit_planes_from_the_table_to_the_rank():
    # odd-p words stay (digits, entries, words) planes from the field's
    # digit table to the rank.  No divmod where _Kernel builds its words:
    # the per-digit np.divmod of six F_3^4 rows of 81 multiples takes
    # 11.5 us, one take from the digit table 2.3 us (one floor division
    # of the same rows, 4.8x slower than the take).  No transpose in
    # _rank_rows_digits: on planes the kernel takes 70.1 us a call at
    # (p, digits, n, words) = (3, 3, 6, 757) and 297 us at (3, 4, 7,
    # 6643), on (entries, digits, words) 88.7 and 321 us (2-core Xeon,
    # numpy 2.4.6)
    tree = ast.parse((SRC[0].parent / "enumeration.py").read_text())
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    methods = {node.name: node for node in defs["_Kernel"].body
               if isinstance(node, ast.FunctionDef)}
    builders = ("__init__", "_words", "chunk_codewords")
    assert set(builders) <= set(methods), "_Kernel word builders renamed"
    found = {f"_Kernel.{name}": _calls_named(methods[name], {"divmod"})
             for name in builders}
    found["_rank_rows_digits"] = _calls_named(defs["_rank_rows_digits"],
                                              {"transpose", "T", "swapaxes", "moveaxis"})
    offenders = {name: lines for name, lines in found.items() if lines}
    assert not offenders, f"digit layout changed in the digit kernel: {offenders}"


def test_no_mask_in_the_packed_kernel():
    # the packed kernel stores every remainder by one scatter, the zero
    # ones into a trash row, with no mask of the nonzero words (a
    # flatnonzero and a gather per column)
    tree = ast.parse((SRC[0].parent / "enumeration.py").read_text())
    kernel = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                  and node.name == "_rank_rows_packed")
    lines = [node.lineno for node in ast.walk(kernel)
             if isinstance(node, ast.Attribute)
             and node.attr in ("flatnonzero", "nonzero")]
    assert not lines, f"masked insert in _rank_rows_packed: {lines}"


def test_packed_kernel_stores_by_one_flat_index():
    # the pivot rows are one flat buffer and each column's remainders
    # are stored at the 1-D intp index e*words + t: numpy runs that
    # faster than the 2-D fancy index piv[e, t] (on 4161 words of 6
    # bits, 10 entries, about 280 against 390 us a call, numpy 2.4.6)
    tree = ast.parse((SRC[0].parent / "enumeration.py").read_text())
    kernel = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                  and node.name == "_rank_rows_packed")
    stores = [target for node in ast.walk(kernel) if isinstance(node, ast.Assign)
              for target in node.targets if isinstance(target, ast.Subscript)]
    assert len(stores) == 1 and isinstance(stores[0].slice, ast.Name), \
        f"_rank_rows_packed stores other than by one 1-D index: {stores}"
    pairs = [node.lineno for node in ast.walk(kernel)
             if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)]
    assert not pairs, f"2-D index in _rank_rows_packed: {pairs}"


def test_detection_reads_blocks_off_the_pivots():
    # a picked codeword is sum c_i[j] * B_j over the RREF rows B_j of its
    # support, so detection reads each block at the pivots j: no inverse
    # of the stacked supports and no product with it
    tree = ast.parse((SRC[0].parent / "codes.py").read_text())
    detect = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                  and node.name == "detect_complete_decomposability")
    lines = [node.lineno for node in ast.walk(detect) if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             in ("field_inverse", "field_vecmat")]
    assert not lines, f"inverse or vecmat in detection at line(s) {lines}"


def test_one_work_budget():
    # --cap counts the words a call enumerates, for distributions and
    # detection alike; the second, projective-point budget is gone
    found = {path.stem: [name for name in ("pcap", "DEFAULT_PROJ_CAP", "projective_cap")
                         if name in path.read_text()] for path in SRC}
    offenders = {stem: names for stem, names in found.items() if names}
    assert not offenders, f"a second work budget in src/: {offenders}"


def test_detection_reads_candidates_by_weight_bucket():
    # detection reads its candidate points lazily, one weight bucket at
    # a time: a stable int64 argsort and two lists over every point
    # peaked at 334 MB on the 16.8M points of F_2^8 with k = 4 (type
    # (3,3,2,2)), the buckets at 61 MB
    tree = ast.parse((SRC[0].parent / "codes.py").read_text())
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.Attribute, ast.Name))
             and getattr(node, "attr", getattr(node, "id", None)) == "argsort"]
    assert not lines, f"argsort in codes.py at line(s) {lines}"


def test_coset_tables_from_field_multiples():
    # each coset table is one gather of field multiples per component,
    # not p^s * G_j basis rows (m*k scale_row lists, one array each)
    # doubled by np.concatenate: the three k = 3 kernels of an F_2^6
    # code of type (4,3,3), with chunk 0, took 113-212 us that way and
    # take 39-41 us from the multiples (numpy 2.4.6)
    tree = ast.parse((SRC[0].parent / "enumeration.py").read_text())
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "scale_row"]
    assert not calls, f"scale_row called in enumeration.py at line(s) {calls}"
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert "_basis_codewords" not in defs, "_basis_codewords is back"
    lines = [node.lineno for node in ast.walk(defs["_Kernel"])
             if isinstance(node, ast.Attribute) and node.attr == "concatenate"]
    assert not lines, f"np.concatenate in _Kernel at line(s) {lines}"


#: public names that only tests call, each the reference a shipped path
#: is checked against
TEST_REFERENCES = {
    "weight_counts": "the full-enumeration oracle",
    "projective_points": "the point order that projective_weights documents",
    "dual_code": "the rank MacWilliams reference",
    "gaussian_binomial": "the subspace-count reference",
}

#: the code outside src/ that ships with the package and calls into it
CALLERS = [path for folder in ("demos", "perfbench")
           for path in sorted((ROOT / folder).glob("*.py"))]


def _names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_function_has_a_caller():
    # a public function or class must be referenced by name outside its
    # own definition: in its module, another module of src/ (not the
    # package's re-exports), a demo or the benchmark
    modules = {path: ast.parse(path.read_text()) for path in SRC
               if path.stem != "__init__"}
    seen = set().union(*(_names(ast.parse(p.read_text())) for p in CALLERS))
    public = {}
    for path, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    public[node.name] = path.stem
                seen |= _names(node) - {node.name}
            else:
                seen |= _names(node)
    dead = sorted(f"{stem}.{name}" for name, stem in public.items()
                  if name not in seen and name not in TEST_REFERENCES)
    assert not dead, f"public names no shipped code calls: {dead}"
    assert set(TEST_REFERENCES) <= set(public), "allow-listed name gone"
