"""Tests for source-location capture and encoding."""

import sys

from repro.util.location import SourceLocation, UNKNOWN_LOCATION, capture_location


class TestSourceLocation:
    def test_encode_decode_roundtrip(self):
        loc = SourceLocation("/a/b/app.py", 42, "main")
        assert SourceLocation.decode(loc.encode()) == loc

    def test_decode_with_colons_in_path(self):
        loc = SourceLocation("/a:b/app.py", 7, "f")
        assert SourceLocation.decode(loc.encode()) == loc

    def test_short_form(self):
        assert SourceLocation("/x/y/app.py", 12, "f").short == "app.py:12"

    def test_ordering(self):
        a = SourceLocation("a.py", 1, "f")
        b = SourceLocation("a.py", 2, "f")
        assert a < b


class TestCaptureLocation:
    def test_captures_this_test(self):
        loc = capture_location()
        assert loc.filename.endswith("test_location.py")
        assert loc.function == "test_captures_this_test"

    def test_unknown_constant(self):
        assert UNKNOWN_LOCATION.lineno == 0

    def test_skips_runtime_frames(self):
        # simulate a call through a runtime-owned file by checking the
        # fragment logic indirectly: capture from here is never attributed
        # to threading.py
        loc = capture_location()
        assert "/threading.py" not in loc.filename


def _two_lines():
    first = capture_location(); line = sys._getframe().f_lineno  # noqa: E702
    second = capture_location()
    return first, second, line


class TestCallSites:
    """A location is worked out once per call site — ``(code object,
    instruction)`` — and handed out again for every later event."""

    def test_same_site_same_object(self):
        locs = [capture_location() for _ in range(3)]
        assert locs[0] is locs[1] is locs[2]

    def test_two_lines_of_one_function(self):
        first, second, line = _two_lines()
        assert (first.lineno, second.lineno) == (line, line + 1)
        assert first.function == second.function == "_two_lines"
        assert first.filename == second.filename == __file__

    def test_two_sites_on_one_line(self):
        a, b = capture_location(), capture_location()
        assert a == b and a.encode() == b.encode()

    def test_comprehension(self):
        line = sys._getframe().f_lineno + 1
        locs = [capture_location() for _ in range(2)]
        assert {loc.lineno for loc in locs} == {line}
        assert locs[0].filename == __file__

    def test_exec_code(self):
        scope = {"capture_location": capture_location}
        exec(compile("def probe():\n"
                     "    return capture_location()\n"
                     "top = capture_location()\n", "<generated>", "exec"),
             scope)
        assert scope["top"].encode() == "<generated>:3:<module>"
        assert scope["probe"]().encode() == "<generated>:2:probe"

    def test_equal_code_objects_are_told_apart(self):
        """Two compilations of the same source give code objects that
        compare (and hash) equal; keyed by identity, each keeps its own
        file name."""
        def make(filename):
            scope = {"capture_location": capture_location}
            exec(compile("def probe():\n    return capture_location()\n",
                         filename, "exec"), scope)
            return scope["probe"]
        assert make("<one>")().filename == "<one>"
        assert make("<two>")().filename == "<two>"

    def test_runtime_frames_are_skipped(self):
        scope = {"capture_location": capture_location}
        exec(compile("def inner():\n    return capture_location()\n",
                     "/x/repro/simmpi/fake.py", "exec"), scope)
        loc = scope["inner"]()
        assert loc.function == "test_runtime_frames_are_skipped"
        exec(compile("def own():\n"
                     "    return capture_location(skip_runtime=False)\n",
                     "/x/repro/simmpi/fake.py", "exec"), scope)
        assert scope["own"]().encode() == "/x/repro/simmpi/fake.py:2:own"

    def test_encode_is_formatted_once(self):
        loc = SourceLocation("/a/b.py", 3, "f")
        assert loc.encode() is loc.encode() == "/a/b.py:3:f"
        assert loc == SourceLocation("/a/b.py", 3, "f")
        assert hash(loc) == hash(SourceLocation("/a/b.py", 3, "f"))
