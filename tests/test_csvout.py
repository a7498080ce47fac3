import io
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sshcsim import csvout, run
from sshcsim.csvout import fmt, write_csv

from conftest import make_sim_config


def written(blocks, header=("a", "b", "c")):
    buf = io.StringIO()
    write_csv(buf, header, blocks)
    return buf.getvalue()


class TestRowTemplate:
    def test_constant_between_varying_fields(self):
        text = written([(("g", fmt(0.1 + 0.2), "d"), [[1.5, -0.25], [2, 3]])])
        assert text == "a,b,c\n1.5,0.3,2\n-0.25,0.3,3\n"

    def test_blocks_follow_one_another(self):
        blocks = [(("g", "g", "1"), [[0.5], [2.0]]), (("g", "3", "g"), [[4.0, 6.0], [5.0, 7.0]])]
        assert written(blocks) == "a,b,c\n0.5,2,1\n4,3,5\n6,3,7\n"

    def test_block_longer_than_one_write(self):
        rows = [(k, f"r{k}", k / 7.0) for k in range(2 * csvout._ROWS + 5)]
        want = "a,b,c\n" + "".join("%d,%s,%.12g\n" % row for row in rows)
        assert written([("dsg", list(zip(*rows)))]) == want

    def test_summary_and_flip_series_fields(self):
        # summary.csv writes text keys beside pre-formatted floats and an int;
        # flip_series.csv an int cycle count, then floats.
        summary = [["steady_state_efficiency", "cycles_to_99pct_of_limit"], [fmt(2.0 / 3.0), 12]]
        assert written([("ss", summary)], ("key", "value")) == (
            "key,value\nsteady_state_efficiency,0.666666666667\ncycles_to_99pct_of_limit,12\n"
        )
        series = [[1, 2], [1.0 / 3.0, 0.0], [-1e-20, 1e21], [0.5, float("inf")]]
        assert written([("dggg", series)], ("n", "efficiency", "vt_V", "closed_form")) == (
            "n,efficiency,vt_V,closed_form\n1,0.333333333333,-1e-20,0.5\n2,0,1e+21,inf\n"
        )


def kernel_block(values):
    """values tiled to a block that the kernel writes, a float column on
    either side of a constant, and the rows "%.12g" gives it."""
    x = np.resize(np.array(values, dtype=np.float64), max(len(values), csvout._KERNEL_VALUES))
    y = x[::-1].copy()
    want = "a,b,c\n" + "".join("%.12g,k,%.12g\n" % row for row in zip(x.tolist(), y.tolist()))
    return [(("g", "k", "g"), [x, y])], want


def mismatch(got, want):
    """The first line where got and want differ, else None: cheap to report
    while hypothesis shrinks a failing block of hundreds of rows."""
    for g, w in zip(got.splitlines(), want.splitlines()):
        if g != w:
            return g, w
    return None if got == want else (len(got), len(want))


def decimals():
    """Floats nearest to a decimal of 1 to 12 significant digits, of either
    sign, at each exponent where %g prints fixed-point: "%.12g" gives back
    those digits, so every mantissa has its full width."""
    digits = st.integers(1, 12).flatmap(
        lambda d: st.integers(10 ** (d - 1), 10**d - 1).map(lambda m: m * 10 ** (12 - d))
    )
    return st.builds(
        lambda m, e, sign: sign * float(f"{m}e{e - 11}"),
        digits,
        st.integers(-4, 11),
        st.sampled_from([1.0, -1.0]),
    )


def fallback_values(fallback):
    return [v for call in fallback.call_args_list for v in call.args[0].tolist()]


def hard_values():
    """Ties and near-ties of the 12th digit, the edges of fixed-point
    notation and of float64, each with its two float neighbours and
    negated."""
    values = [123456789012.5, 123456789013.5, 999999999999.5, 100000000000.5, 9.99999999999995e-5]
    values += [float(f"1e{k}") for k in range(-5, 13)]
    values += [5e-324, 1.7976931348623157e308]
    values = [v for x in values for v in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))]
    return values + [-v for v in values] + [-0.0]


class TestFloatKernel:
    """Blocks of float64 columns with at least _KERNEL_VALUES values go
    through the numpy kernel; each must write the bytes of "%.12g"."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_writes_the_bytes_of_printf(self, values):
        blocks, want = kernel_block(values)
        with mock.patch.object(csvout, "_format", wraps=csvout._format) as kernel:
            assert mismatch(written(blocks), want) is None
        assert kernel.called

    @settings(max_examples=300, deadline=None)
    @given(st.lists(decimals(), min_size=1, max_size=64))
    def test_full_mantissas_at_every_exponent(self, values):
        blocks, want = kernel_block(values)
        with mock.patch.object(csvout, "_fallback", wraps=csvout._fallback) as fallback:
            assert mismatch(written(blocks), want) is None
        # Only a power of ten, whose log10 may land below its exponent, may
        # leave the kernel: no other draw is near a tie.
        missed = fallback_values(fallback)
        assert all(abs(v) == float(f"1e{round(math.log10(abs(v)))}") for v in missed), missed

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(1e-4, 1e12, exclude_max=True), min_size=1, max_size=64),
           st.booleans())
    def test_fixed_point_range(self, values, negate):
        blocks, want = kernel_block([-v for v in values] if negate else values)
        assert mismatch(written(blocks), want) is None

    def test_few_fixed_point_values_fall_back(self):
        # Log-uniform over [1e-4, 1e12): a near-tie, |y - rint(y)| >= 0.4996,
        # takes about 0.08% of them.
        rng = np.random.default_rng(31)
        x = 10.0 ** rng.uniform(-4.0, 12.0, 100_000) * rng.choice([-1.0, 1.0], 100_000)
        x = x[np.abs(x) < 1e12]
        with mock.patch.object(csvout, "_fallback", wraps=csvout._fallback) as fallback:
            text = written([(("g",), [x])], ("a",))
        assert mismatch(text, "a\n" + "".join("%.12g\n" % v for v in x.tolist())) is None
        assert len(fallback_values(fallback)) < 0.002 * len(x)

    def test_hard_values(self):
        values = hard_values()
        blocks, want = kernel_block(values)
        assert written(blocks) == want
        kernel = csvout._format(np.array(values))
        for x, words in zip(values, kernel):
            assert words.tobytes().replace(b"\0", b"").decode() == "%.12g" % x

    def test_short_blocks_keep_the_row_template(self):
        least = csvout._KERNEL_VALUES // 2  # rows of two float columns
        for rows, kernel_runs in ((least - 1, False), (least, True)):
            x = np.linspace(0.0, 1.0, rows)
            with mock.patch.object(csvout, "_format", wraps=csvout._format) as kernel:
                text = written([(("g", "k", "g"), [x, x])])
            assert kernel.called == kernel_runs, rows
            assert text == "a,b,c\n" + "".join("%.12g,k,%.12g\n" % (v, v) for v in x.tolist())

    def test_lists_and_integer_fields_keep_the_row_template(self):
        x = np.linspace(0.0, 1.0, 2 * csvout._KERNEL_VALUES)
        for block in ((("g",), [x.tolist()]), (("d", "g"), [range(len(x)), x])):
            with mock.patch.object(csvout, "_format", wraps=csvout._format) as kernel:
                written([block], ("a",))
            assert not kernel.called

    def test_the_kernel_writes_most_of_a_default_waveform(self):
        # Without this a kernel that fell back on every value would pass the
        # byte tests. On the default fixed rail vt and vs vary only in the
        # flip rows, which % writes, so the kernel's values are t and vpt.
        wf = run(make_sim_config(n_cycles=10)).waveform
        t_and_vpt = sum(
            len(columns[0]) * (1 + (fields[1] == "g")) for fields, columns in wf._csv_blocks()
        )
        with mock.patch.object(csvout, "_format", wraps=csvout._format) as kernel, \
                mock.patch.object(csvout, "_fallback", wraps=csvout._fallback) as fallback:
            wf.write_csv(io.StringIO())
        formatted = sum(call.args[0].size for call in kernel.call_args_list)
        missed = len(fallback_values(fallback))
        assert formatted - missed >= 0.99 * t_and_vpt, (formatted, missed, t_and_vpt)
