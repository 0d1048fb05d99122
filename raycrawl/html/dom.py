"""DOM-lite HTML tree built by a regex tokenizer.

The sealed sandbox has no bs4/lxml, so this module provides the minimal
document-object model the extraction chain needs: parse, pre-order search by
tag/attribute, text extraction, deep copy, and HTML re-serialization.
``parse_html`` builds the tree with a single master-regex tokenizer
(``_fast_parse``); the stdlib ``html.parser`` builder (``_TreeBuilder``) is
kept only as the cross-check it is verified against.

Semantics modeled on the reference's BeautifulSoup usage
(/root/reference/services/scraper/scraper.py:311-352, 485-505 and
/root/reference/services/extractors/structured_data.py) but implemented from
scratch; serialization format is this engine's own deterministic spec.
"""

from __future__ import annotations

import re
from html import escape, unescape
from html.parser import HTMLParser
from typing import Callable, Iterator, Optional

# Tags that never have content / closing tag (HTML5 void elements).
VOID_TAGS = frozenset(
    {
        "area", "base", "br", "col", "embed", "hr", "img", "input",
        "link", "meta", "param", "source", "track", "wbr",
    }
)

TEXT = "#text"
COMMENT = "#comment"


class Node:
    """One element, text run, or comment in the parsed tree.

    A node holds its children and no link back to its parent, so a tree
    has no reference cycle and is freed by refcount as soon as the last
    reference to its root goes."""

    __slots__ = ("tag", "attrs", "children", "text")

    def __init__(
        self,
        tag: str,
        attrs: Optional[list[tuple[str, Optional[str]]]] = None,
        text: str = "",
    ) -> None:
        self.tag = tag
        # Attribute order is preserved (list of pairs); values may be None for
        # bare attributes (<meta charset>-style handled by html.parser as value).
        self.attrs: list[tuple[str, str]] = [
            (k, v if v is not None else "") for k, v in (attrs or [])
        ]
        self.children: list[Node] = []
        self.text = text  # only for #text / #comment nodes

    # -- attribute access -------------------------------------------------
    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        for k, v in self.attrs:
            if k == name:
                return v
        return default

    def has_attr(self, name: str) -> bool:
        return any(k == name for k, _ in self.attrs)

    def set(self, name: str, value: str) -> None:
        for i, (k, _) in enumerate(self.attrs):
            if k == name:
                self.attrs[i] = (name, value)
                return
        self.attrs.append((name, value))

    # -- tree ops ---------------------------------------------------------
    def append(self, child: "Node") -> None:
        self.children.append(child)

    def iter(self) -> Iterator["Node"]:
        """Pre-order traversal including self (document order)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            ch = node.children
            if ch:
                stack.extend(ch[::-1])

    def iter_elements(self) -> Iterator["Node"]:
        # single inline traversal, not a generator over iter(): the
        # double generator frame costs 2.4× on the extraction hot path
        # (tree walks are ~40% of extract_page — profiled round 4)
        stack = [self]
        while stack:
            node = stack.pop()
            tag = node.tag
            if tag != TEXT and tag != COMMENT:
                yield node
            ch = node.children
            if ch:
                stack.extend(ch[::-1])

    # -- search (document order, like soup.find / find_all) ----------------
    def find_all(
        self,
        tag: Optional[str | tuple[str, ...]] = None,
        predicate: Optional[Callable[["Node"], bool]] = None,
        **attrs: object,
    ) -> list["Node"]:
        tags = (tag,) if isinstance(tag, str) else tag
        out = []
        for node in self.iter_elements():
            if node is self:
                continue
            if tags is not None and node.tag not in tags:
                continue
            if predicate is not None and not predicate(node):
                continue
            ok = True
            for name, want in attrs.items():
                got = node.get(name)
                if want is True:
                    ok = got is not None
                elif callable(want):
                    ok = bool(want(got))
                else:
                    ok = got == want
                if not ok:
                    break
            if ok:
                out.append(node)
        return out

    def find(
        self,
        tag: Optional[str | tuple[str, ...]] = None,
        predicate: Optional[Callable[["Node"], bool]] = None,
        **attrs: object,
    ) -> Optional["Node"]:
        for node in self.iter_elements():
            if node is self:
                continue
            if isinstance(tag, str):
                if node.tag != tag:
                    continue
            elif tag is not None and node.tag not in tag:
                continue
            if predicate is not None and not predicate(node):
                continue
            ok = True
            for name, want in attrs.items():
                got = node.get(name)
                if want is True:
                    ok = got is not None
                elif callable(want):
                    ok = bool(want(got))
                else:
                    ok = got == want
                if not ok:
                    break
            if ok:
                return node
        return None

    # -- text -------------------------------------------------------------
    def get_text(self) -> str:
        parts = []
        for node in self.iter():
            if node.tag == TEXT:
                parts.append(node.text)
        return "".join(parts)

    def copy(self) -> "Node":
        """Deep copy of this subtree (detached). Equivalent to the
        serialize+reparse round-trip but without entity-escaping asymmetries
        in CDATA content, and ~3× cheaper."""
        n = Node.__new__(Node)
        n.tag = self.tag
        n.attrs = list(self.attrs)
        n.text = self.text
        n.children = [c.copy() for c in self.children]
        return n

    # -- serialization ----------------------------------------------------
    def to_html(self) -> str:
        parts: list[str] = []
        self._serialize(parts)
        return "".join(parts)

    def _serialize(self, out: list[str]) -> None:
        if self.tag == TEXT:
            out.append(escape(self.text, quote=False))
            return
        if self.tag == COMMENT:
            out.append(f"<!--{self.text}-->")
            return
        if self.tag == "#document":
            for c in self.children:
                c._serialize(out)
            return
        attr_s = "".join(f' {k}="{escape(v)}"' for k, v in self.attrs)
        if self.tag in VOID_TAGS:
            out.append(f"<{self.tag}{attr_s}/>")
            return
        out.append(f"<{self.tag}{attr_s}>")
        for c in self.children:
            c._serialize(out)
        out.append(f"</{self.tag}>")


# Elements whose raw text must not be treated as markup children when searching
# for structure; html.parser already gives us CDATA handling for script/style.
_IMPLICIT_CLOSE = {
    # very small subset of HTML5 implied-end-tag rules, enough for real pages
    "li": {"li"},
    "p": {"p", "div", "section", "article", "ul", "ol", "table", "blockquote",
          "pre", "h1", "h2", "h3", "h4", "h5", "h6", "main", "aside", "nav",
          "header", "footer"},
    "td": {"td", "th", "tr"},
    "th": {"td", "th", "tr"},
    "tr": {"tr"},
    "option": {"option"},
}


class _TreeBuilder(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = Node("#document")
        self.stack = [self.root]

    # current insertion point
    @property
    def top(self) -> Node:
        return self.stack[-1]

    def handle_starttag(self, tag: str, attrs: list) -> None:
        # implied end tags (e.g. <li> closes an open <li>)
        while len(self.stack) > 1:
            open_tag = self.top.tag
            if open_tag in _IMPLICIT_CLOSE and tag in _IMPLICIT_CLOSE[open_tag]:
                self.stack.pop()
            else:
                break
        node = Node(tag, attrs)
        self.top.append(node)
        if tag not in VOID_TAGS:
            self.stack.append(node)

    def handle_startendtag(self, tag: str, attrs: list) -> None:
        self.top.append(Node(tag, attrs))

    def handle_endtag(self, tag: str) -> None:
        # pop to the nearest matching open tag; ignore stray end tags
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].tag == tag:
                del self.stack[i:]
                return

    def handle_data(self, data: str) -> None:
        if data:
            self.top.append(Node(TEXT, text=data))

    def handle_comment(self, data: str) -> None:
        self.top.append(Node(COMMENT, text=data))


def parse_html(html: str, parser: str = "fast") -> Node:
    """Parse an HTML string into a DOM-lite tree rooted at ``#document``.

    parser='fast' (default) uses the regex tokenizer below — ~2× faster
    than stdlib html.parser and verified tree-identical to it on the
    conformance corpora (tests/test_html.py::test_parsers_agree).
    parser='stdlib' keeps the html.parser path as the cross-check.
    """
    if parser == "fast":
        return _fast_parse(html)
    builder = _TreeBuilder()
    builder.feed(html)
    builder.close()
    return builder.root


# ---------------------------------------------------------------------------
# fast regex tokenizer (same event semantics as html.parser with
# convert_charrefs=True: entities unescaped in text and attribute values,
# raw CDATA content for <script>/<style>)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"<(?:"
    r"!--(?P<comment>.*?)--\s*>"
    r"|(?P<decl>![^>]*)>"
    r"|\?(?P<pi>[^>]*)>"
    r"|/(?P<end>[a-zA-Z][^\s>]*)\s*>"
    r"|(?P<start>[a-zA-Z][^\s/>]*)(?P<attrs>(?:\"[^\"]*\"|'[^']*'|[^>])*?)(?P<selfclose>/?)>"
    r")",
    re.DOTALL,
)
_ATTR_RE = re.compile(
    r"([^\s=/>]+)(?:\s*=\s*(?:\"([^\"]*)\"|'([^']*)'|([^\s>]*)))?"
)
_RAWTEXT = frozenset({"script", "style"})
_RAWTEXT_CLOSE = {t: re.compile(rf"</{t}\s*>", re.IGNORECASE) for t in _RAWTEXT}

# the start tags that can close an open element by implication
_CLOSERS = frozenset().union(*_IMPLICIT_CLOSE.values())


def _fast_parse(html: str) -> Node:
    # Nodes are built with __new__ and direct slot stores: Node.__init__'s
    # attribute-list comprehension is a per-node function call, and this
    # loop builds every node of every page.
    new = Node.__new__
    root = new(Node)
    root.tag, root.attrs, root.children, root.text = "#document", [], [], ""
    stack = [root]
    top = root
    search = _TOKEN_RE.search
    pos = 0
    n = len(html)
    while pos < n:
        m = search(html, pos)
        start = m.start() if m is not None else n
        if start > pos:
            text = html[pos:start]
            node = new(Node)
            node.tag, node.attrs, node.children = TEXT, [], []
            node.text = unescape(text) if "&" in text else text
            top.children.append(node)
        if m is None:
            break
        pos = m.end()
        kind = m.lastgroup
        if kind == "selfclose":  # a start tag: selfclose always participates
            name, attrs_s, selfclose = m.group(5, 6, 7)
            tag = name.lower()
            attrs: list[tuple[str, str]] = []
            if attrs_s:
                # unmatched alternatives are '' in findall, and at most one
                # value alternative matches, so `or` picks it (or '')
                for k, v1, v2, v3 in _ATTR_RE.findall(attrs_s):
                    val = v1 or v2 or v3
                    attrs.append((k.lower(), unescape(val) if "&" in val else val))
            if tag in _CLOSERS:
                while len(stack) > 1:
                    closes = _IMPLICIT_CLOSE.get(top.tag)
                    if closes is None or tag not in closes:
                        break
                    stack.pop()
                    top = stack[-1]
            node = new(Node)
            node.tag, node.attrs, node.children, node.text = tag, attrs, [], ""
            top.children.append(node)
            if selfclose or tag in VOID_TAGS:
                continue
            if tag in _RAWTEXT:
                cm = _RAWTEXT_CLOSE[tag].search(html, pos)
                raw_end = cm.start() if cm else n
                if raw_end > pos:
                    raw = new(Node)
                    raw.tag, raw.attrs, raw.children = TEXT, [], []
                    raw.text = html[pos:raw_end]
                    node.children.append(raw)
                pos = cm.end() if cm else n
                continue
            stack.append(node)
            top = node
        elif kind == "end":
            tag = m.group(4).lower()
            for i in range(len(stack) - 1, 0, -1):
                if stack[i].tag == tag:
                    del stack[i:]
                    top = stack[-1]
                    break
        elif kind == "comment":
            node = new(Node)
            node.tag, node.attrs, node.children = COMMENT, [], []
            node.text = m.group(1)
            top.children.append(node)
        # declarations and processing instructions are dropped
    return root
