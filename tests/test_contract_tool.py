"""`tests/contract.py --against`: the comparison of two digest files, on
small files and a stand-in item list, without running the CLI menu."""

import hashlib

import contract


def digest_file(path, items):
    path.write_text("".join(f"{hashlib.sha256(text.encode()).hexdigest()}  {name}\n"
                            for name, text in items))
    return path


def test_read_digests_and_differences(tmp_path):
    old = contract.read_digests(digest_file(tmp_path / "old.txt", [
        ("verify default", "a"), ("powsum --q 3 --d 2", "b"), ("bg --q 3", "c")]))
    new = contract.read_digests(digest_file(tmp_path / "new.txt", [
        ("verify default", "a"), ("powsum --q 3 --d 2", "B"), ("skew --q 3", "d")]))
    assert list(old) == ["verify default", "powsum --q 3 --d 2", "bg --q 3"]
    assert contract.differences(old, old) == []
    assert contract.differences(old, new) == [
        ("powsum --q 3 --d 2", old["powsum --q 3 --d 2"], new["powsum --q 3 --d 2"]),
        ("skew --q 3", None, new["skew --q 3"]),
        ("bg --q 3", old["bg --q 3"], None)]


def test_against_prints_each_differing_item_and_exits_1(tmp_path, monkeypatch, capsys):
    items = [("verify default", "a"), ("bg --q 3", "c")]
    monkeypatch.setattr(contract, "_items",
                        lambda: [(name, lambda text=text: text) for name, text in items])
    same = digest_file(tmp_path / "same.txt", items)
    assert contract.main(["--against", str(same)]) == 0
    assert capsys.readouterr().out == "0 of 2 items differ\n"
    other = digest_file(tmp_path / "other.txt", [("verify default", "a"), ("bg --q 3", "C")])
    assert contract.main(["--against", str(other)]) == 1
    old, new = (hashlib.sha256(t.encode()).hexdigest() for t in "Cc")
    assert capsys.readouterr().out == f"bg --q 3: {old} -> {new}\n1 of 2 items differ\n"
