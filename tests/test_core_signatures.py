"""Unit tests for the kernel signature parser."""

import pytest

from repro.core.signatures import (
    ParamKind,
    parse_signature,
    program_signature,
)
from repro.errors import SignatureError


def kinds(decl):
    return [p.kind for p in parse_signature(decl).params]


def test_simple_kernel():
    sig = parse_signature("__global__ void saxpy(long a, const long* x, long* y, long n)")
    assert sig.kernel_name == "saxpy"
    assert kinds("__global__ void saxpy(long a, const long* x, long* y, long n)") == [
        ParamKind.SCALAR,
        ParamKind.CONST_PTR,
        ParamKind.MUT_PTR,
        ParamKind.SCALAR,
    ]


def test_no_global_qualifier():
    sig = parse_signature("void f(int n)")
    assert sig.kernel_name == "f"
    assert sig.params[0].kind is ParamKind.SCALAR


def test_empty_and_void_params():
    assert len(parse_signature("void f()")) == 0
    assert len(parse_signature("void f(void)")) == 0


def test_unnamed_params():
    assert kinds("void f(const float*, float*, int)") == [
        ParamKind.CONST_PTR,
        ParamKind.MUT_PTR,
        ParamKind.SCALAR,
    ]


def test_const_after_type():
    # `float const*` is a pointer-to-const: read-only.
    assert kinds("void f(float const* x)") == [ParamKind.CONST_PTR]


def test_const_pointer_itself_is_mutable_pointee():
    # `float* const p` can still write through p.
    assert kinds("void f(float* const p)") == [ParamKind.MUT_PTR]


def test_double_pointer_is_mutable():
    assert kinds("void f(float** pp)") == [ParamKind.MUT_PTR]


def test_const_double_pointer():
    assert kinds("void f(const float** pp)") == [ParamKind.CONST_PTR]


def test_struct_param_is_opaque():
    sig = parse_signature("void k(struct Params p, int n)")
    assert sig.params[0].kind is ParamKind.STRUCT
    assert sig.has_struct


def test_struct_pointer_is_pointer_not_struct():
    assert kinds("void k(struct Params* p)") == [ParamKind.MUT_PTR]
    assert kinds("void k(const struct Params* p)") == [ParamKind.CONST_PTR]


def test_unsigned_types():
    assert kinds("void f(unsigned long long n, unsigned char* out)") == [
        ParamKind.SCALAR,
        ParamKind.MUT_PTR,
    ]


def test_param_names_extracted():
    sig = parse_signature("void f(const float* input, float* output)")
    assert sig.params[0].name == "input"
    assert sig.params[1].name == "output"


def test_garbage_rejected():
    with pytest.raises(SignatureError):
        parse_signature("not a declaration at all!")


def test_trailing_semicolon_ok():
    sig = parse_signature("__global__ void k(int* p);")
    assert sig.kernel_name == "k"


def test_cache_parses_once():
    """The parse is kept in the program's ``signature`` field: twice the
    same object for one program, and a declaration that does not parse
    is remembered as None."""
    from repro.gpu.isa import ProgramBuilder

    program = ProgramBuilder("k", "void k(int* p)").exit().build()
    s1 = program_signature(program)
    assert s1 is program_signature(program)
    assert s1 == parse_signature("void k(int* p)")
    twin = ProgramBuilder("k", "void k(const int* p)").exit().build()
    assert program_signature(twin).params[0].kind is ParamKind.CONST_PTR
    garbage = ProgramBuilder("k", "not a declaration!").exit().build()
    assert program_signature(garbage) is None
    assert garbage.signature is None


def test_real_kernel_decl_from_program_library():
    from repro.gpu.program import build_saxpy

    prog = build_saxpy()
    sig = parse_signature(prog.decl)
    assert sig.kernel_name == "saxpy"
    assert [p.kind for p in sig.params] == [
        ParamKind.SCALAR,
        ParamKind.CONST_PTR,
        ParamKind.CONST_PTR,
        ParamKind.MUT_PTR,
        ParamKind.SCALAR,
    ]
