"""Operator dataclass behaviour."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.graph.ops import OpKind, Operator


def make_op(**overrides):
    defaults = dict(name="op", kind=OpKind.FFN_UP, flops=100.0,
                    weight_bytes=10.0, input_bytes=4.0, output_bytes=6.0)
    defaults.update(overrides)
    return Operator(**defaults)


class TestValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_op(name="")

    @pytest.mark.parametrize("field", ["flops", "weight_bytes",
                                       "input_bytes", "output_bytes"])
    def test_negative_quantities_rejected(self, field):
        with pytest.raises(ConfigurationError):
            make_op(**{field: -1.0})


class TestDerivedQuantities:
    def test_activation_bytes(self):
        assert make_op().activation_bytes == 10.0

    def test_memory_bytes(self):
        assert make_op().memory_bytes == 20.0

    def test_arithmetic_intensity(self):
        assert make_op().arithmetic_intensity == pytest.approx(5.0)

    def test_zero_traffic_intensity(self):
        op = make_op(weight_bytes=0.0, input_bytes=0.0, output_bytes=0.0)
        assert op.arithmetic_intensity == 0.0

    def test_decoder_op_flag(self):
        assert make_op(layer_index=3).is_decoder_op
        assert not make_op(layer_index=-1).is_decoder_op


class TestKindProperties:
    def test_matmul_kinds(self):
        assert OpKind.QKV_PROJ.is_matmul
        assert OpKind.LM_HEAD.is_matmul
        assert not OpKind.LAYERNORM.is_matmul

    def test_elementwise_kinds(self):
        assert OpKind.LAYERNORM.is_elementwise
        assert OpKind.RESIDUAL_ADD.is_elementwise
        assert not OpKind.FFN_UP.is_elementwise

    def test_no_kind_is_both(self):
        for kind in OpKind:
            assert not (kind.is_matmul and kind.is_elementwise)


class TestAsBackward:
    def test_doubles_flops_by_default(self):
        bwd = make_op().as_backward()
        assert bwd.flops == 200.0
        assert bwd.backward

    def test_swaps_io(self):
        bwd = make_op().as_backward()
        assert bwd.input_bytes == 6.0
        assert bwd.output_bytes == 4.0

    def test_name_suffix(self):
        assert make_op().as_backward().name == "op.bwd"

    def test_custom_multiplier(self):
        assert make_op().as_backward(3.0).flops == 300.0


def test_as_backward_matches_replace():
    """The direct-constructor twin equals the ``dataclasses.replace`` form.

    Compared field by field over every ``dataclasses.fields(Operator)``
    entry, so a new ``Operator`` field the constructor call forgets
    fails here; ``attrs`` is shared by identity, as ``replace`` shares it.
    """
    op = make_op(layer_index=3, attrs={"m": 2, "k": 3, "n": 4})
    for multiplier in (2.0, 3.0, 0.0):
        twin = op.as_backward(multiplier)
        expected = dataclasses.replace(
            op, name=f"{op.name}.bwd", flops=op.flops * multiplier,
            input_bytes=op.output_bytes, output_bytes=op.input_bytes,
            backward=True)
        for f in dataclasses.fields(Operator):
            assert getattr(twin, f.name) == getattr(expected, f.name), f.name
        assert twin.attrs is op.attrs


class TestScaled:
    def test_half(self):
        half = make_op().scaled(0.5, suffix=".s0")
        assert half.flops == 50.0
        assert half.weight_bytes == 5.0
        assert half.name == "op.s0"

    def test_negative_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            make_op().scaled(-0.1)

    @given(st.floats(min_value=0.0, max_value=10.0))
    def test_scaling_is_linear(self, factor):
        op = make_op()
        scaled = op.scaled(factor)
        assert scaled.flops == pytest.approx(op.flops * factor)
        assert scaled.memory_bytes == pytest.approx(
            op.memory_bytes * factor)
