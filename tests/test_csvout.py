import io

from sshcsim import csvout
from sshcsim.csvout import fmt, write_csv


def written(blocks, header=("a", "b", "c")):
    buf = io.StringIO()
    write_csv(buf, header, blocks)
    return buf.getvalue()


class TestRowTemplate:
    def test_constant_between_varying_fields(self):
        text = written([(("g", fmt(0.1 + 0.2), "d"), [1.5, 2, -0.25, 3])])
        assert text == "a,b,c\n1.5,0.3,2\n-0.25,0.3,3\n"

    def test_blocks_follow_one_another(self):
        blocks = [(("g", "g", "1"), [0.5, 2.0]), (("g", "3", "g"), [4.0, 5.0, 6.0, 7.0])]
        assert written(blocks) == "a,b,c\n0.5,2,1\n4,3,5\n6,3,7\n"

    def test_block_longer_than_one_write(self):
        rows = [(k, f"r{k}", k / 7.0) for k in range(2 * csvout._ROWS + 5)]
        values = [x for row in rows for x in row]
        want = "a,b,c\n" + "".join("%d,%s,%.12g\n" % row for row in rows)
        assert written([("dsg", values)]) == want

    def test_summary_and_flip_series_fields(self):
        # summary.csv writes text keys beside pre-formatted floats and an int;
        # flip_series.csv an int cycle count, then floats.
        summary = ["steady_state_efficiency", fmt(2.0 / 3.0), "cycles_to_99pct_of_limit", 12]
        assert written([("ss", summary)], ("key", "value")) == (
            "key,value\nsteady_state_efficiency,0.666666666667\ncycles_to_99pct_of_limit,12\n"
        )
        series = [1, 1.0 / 3.0, -1e-20, 0.5, 2, 0.0, 1e21, float("inf")]
        assert written([("dggg", series)], ("n", "efficiency", "vt_V", "closed_form")) == (
            "n,efficiency,vt_V,closed_form\n1,0.333333333333,-1e-20,0.5\n2,0,1e+21,inf\n"
        )
