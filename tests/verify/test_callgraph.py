"""The function table ``--reach`` diffs against: every def in a
package, named as the package imports itself, in a stable order."""

from repro.verify.reach import functions


class TestPackageWalk:
    def test_add_package_orders_modules_stably(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("def top():\n    return 0\n")
        (pkg / "b.py").write_text("def g():\n    return 2\n")
        (pkg / "a.py").write_text(
            "class K:\n"
            "    def m(self):\n"
            "        def inner():\n"
            "            return 1\n"
            "        return inner()\n"
            "f = lambda: 1\n"
        )
        sub = pkg / "sub"
        sub.mkdir()
        (sub / "__init__.py").write_text("")
        (sub / "c.py").write_text("def h():\n    return 3\n")

        table = functions(str(pkg))
        assert list(table) == [
            "pkg:top", "pkg.a:K.m", "pkg.a:K.m.inner", "pkg.a:f",
            "pkg.b:g", "pkg.sub.c:h",
        ]
        info = table["pkg.a:K.m.inner"]
        assert (info.module, info.qualname, info.name, info.lineno) == (
            "pkg.a", "K.m.inner", "inner", 3)
        assert info.path == str(pkg / "a.py")
