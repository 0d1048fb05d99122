"""HTML cleaning and main-content detection.

Reimplements the reference semantics of ``ContentExtractor._clean_html`` and
``ContentExtractor._find_main_content``
(/root/reference/services/scraper/scraper.py:311-352, 485-505) over the
DOM-lite tree: drop script/style/iframe/noscript/comments; drop
nav/footer/header unless they contain main/article/section; whitelist
attributes {href,src,alt,title,class,id,role,type,rel,target} plus data-* and
aria-*; main content = first of main / article / div[id~content|main|article]
/ div[class~...] / div[role=main], falling back to the largest-text
div/section.
"""

from __future__ import annotations

import re
from typing import Optional

from .dom import COMMENT, TEXT, Node, parse_html

_UNWANTED_TAGS = ("script", "style", "iframe", "noscript")
_CHROME_TAGS = frozenset({"nav", "footer", "header"})
_KEEP_CHROME = frozenset({"main", "article", "section"})
_ALLOWED_ATTRS = frozenset(
    {"href", "src", "alt", "title", "class", "id", "role", "type", "rel", "target"}
)
_ALLOWED_PREFIXES = ("data-", "aria-")
_CONTENT_RE = re.compile(r"content|main|article", re.I)
# children dropped outright, and never descended into
_DROPPED = frozenset(_UNWANTED_TAGS) | {COMMENT}
_LEAVES = _DROPPED | {TEXT}


def clean_tree(root: Node) -> Node:
    """In-place clean of a parsed tree (reference scraper.py:311-352): drop
    unwanted tags and comments, drop nav/footer/header with no
    main/article/section left under them, whitelist attributes (``root``'s
    own included). ``root`` itself is never dropped.

    One bottom-up pass over the elements a top-down walk collects (it skips
    dropped subtrees): a node's children are final before the node is
    visited, so a chrome child is kept iff a kept descendant is a
    main/article/section. Dropping chrome in document order, as the
    reference does, gives the same tree: an ancestor is only dropped when
    no content tag is under it, and its descendants are then dropped too."""
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        for c in node.children:
            if c.tag not in _LEAVES:
                stack.append(c)
    with_content: set[int] = set()  # ids of nodes with a kept content tag below
    for node in reversed(order):
        children = node.children
        if children:
            kept = []
            has_content = False
            for c in children:
                tag = c.tag
                if tag in _DROPPED or (tag in _CHROME_TAGS
                                       and id(c) not in with_content):
                    continue
                if tag in _KEEP_CHROME or id(c) in with_content:
                    has_content = True
                kept.append(c)
            if len(kept) != len(children):
                node.children = kept
            if has_content:
                with_content.add(id(node))
        if node.attrs:
            node.attrs = [
                (k, v)
                for k, v in node.attrs
                if k in _ALLOWED_ATTRS or k.startswith(_ALLOWED_PREFIXES)
            ]
    return root


def clean_html(html: str) -> str:
    """Parse + clean + re-serialize (the ``html`` output column)."""
    return clean_tree(parse_html(html)).to_html()


def find_main_content(root: Node) -> Optional[Node]:
    """First main-content container in priority order — main, article,
    div[id~content|main|article], div[class~…], div[role=main] — else the
    largest-text div/section (the first of equals), else None (reference
    scraper.py:485-505). ``root`` itself is not a candidate.

    One document-order walk finds the first of each kind and the fallback
    containers; it stops at the first ``main``."""
    article = by_id = by_class = by_role = None
    containers: list[Node] = []
    stack = root.children[::-1]
    while stack:
        node = stack.pop()
        tag = node.tag
        if tag == "main":
            return node
        if article is None:
            if tag == "article":
                article = node
            elif tag == "div":
                containers.append(node)
                if by_id is None:
                    v = node.get("id")
                    if v is not None and _CONTENT_RE.search(v):
                        by_id = node
                if by_class is None:
                    v = node.get("class")
                    if v is not None and _CONTENT_RE.search(v):
                        by_class = node
                if by_role is None and node.get("role") == "main":
                    by_role = node
            elif tag == "section":
                containers.append(node)
        children = node.children
        if children:
            stack.extend(children[::-1])
    hit = article or by_id or by_class or by_role
    if hit is not None or not containers:
        return hit
    size = _text_lengths(root)
    return max(containers, key=lambda n: size[id(n)])


def _text_lengths(root: Node) -> dict[int, int]:
    """``len(n.get_text())`` for every node under ``root``, keyed by id, in
    one bottom-up pass (linear in the tree, whatever its depth)."""
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    size: dict[int, int] = {}
    for node in reversed(order):
        if node.tag == TEXT:
            size[id(node)] = len(node.text)
        else:
            size[id(node)] = sum(size[id(c)] for c in node.children)
    return size
