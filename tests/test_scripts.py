"""The demonstration scripts run with their default arguments and report the
figures the README describes."""

import helpers


def run_script(name):
    return helpers.run_python(str(helpers.ROOT / "scripts" / name))


def test_census_small_maps():
    done = run_script("census_small_maps.py")
    assert done.returncode == 0, done.stderr
    blocks = done.stdout.strip().split("\n\n")
    expected = (
        ("4 taxa, symbols a b: 16 maps", [8, 8, 6, 0]),
        ("5 taxa, symbols a b: 1024 maps", [52, 52, 30, 0]),
    )
    for block, (head, counts) in zip(blocks, expected, strict=True):
        lines = block.splitlines()
        assert lines[0] == head
        # metric, reconstructed, binary, disagreements
        assert [int(line.rsplit(":", 1)[1]) for line in lines[1:5]] == counts


def test_find_nonthin_map():
    done = run_script("find_nonthin_map.py")
    assert done.returncode == 0, done.stderr
    assert "2 doubled supports" in done.stdout
