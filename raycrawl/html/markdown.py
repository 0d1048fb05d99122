"""HTML → markdown conversion + markdown post-processing.

The reference converts cleaned HTML with html2text configured at
/root/reference/services/scraper/scraper.py:284-298 (body_width=0,
unicode_snob, mark_code, ``*``/``**`` emphasis, keep links/images/tables) and
then runs the post-process chain at scraper.py:543-662. html2text does not
exist in this sandbox, so ``to_markdown`` is a from-scratch renderer
implementing the *configured subset* of that conversion as this engine's
deterministic spec (documented divergences live in the golden fixtures); the
post-process chain in ``post_process_markdown`` follows the reference's regex
sequence operation-for-operation.

Spec boundary (fixture-matrix r4 — every construct below is frozen in
goldens; anything outside it is undefined behavior vs real html2text):
headings h1-h6, paragraphs, ul/ol with arbitrary nesting, tables (incl.
inline markup in cells), blockquotes (incl. nesting, nested lists and
nested tables), pre with or without <code> ([code] fences), definition
lists (<dt> line + 4-space-indented <dd>), hr, links/images (incl. the
image-in-link block form), inline em/strong/code, entities, CJK/emoji,
attribute stripping. Known divergence class: html2text's body_width
re-wrapping is vacuous here (body_width=0 configured) and its
Unicode-snob punctuation substitutions are applied by the post-processor
only where the reference chain does.

Image enhancement (default alt='Image', title = src filename with query
stripped) mirrors scraper.py:517-528; ``mark_code`` emits [code]/[/code]
markers that the post-processor rewrites to fenced blocks, matching the
reference pipeline's observable output.
"""

from __future__ import annotations

import re
from typing import Optional

from .dom import COMMENT, TEXT, Node, parse_html

# ---------------------------------------------------------------------------
# HTML → markdown renderer
# ---------------------------------------------------------------------------

_BLOCK_TAGS = frozenset(
    {
        "html", "body", "div", "section", "article", "main", "aside",
        "header", "footer", "nav", "figure", "figcaption", "form",
        "fieldset", "details", "summary", "address",
    }
)
_SKIP_TAGS = frozenset({"script", "style", "iframe", "noscript", "head",
                        "title", "meta", "link", "base", "template"})
# children that children_as_blocks merges into one paragraph run
_INLINE_RUN_TAGS = frozenset(
    {TEXT, "a", "em", "i", "strong", "b", "code", "span", "img", "br",
     "small", "sub", "sup", "u", "del", "s", "strike", "abbr", "time",
     "label", "mark", "q", "cite", "kbd", "samp"}
)
_WS_RE = re.compile(r"[ \t\r\n\f]+")
_MULTISPACE_RE = re.compile(r" {2,}")
# Full \s semantics for table cells: html2text maps &nbsp; to a plain
# space, so NBSP/　/\v inside a cell must collapse like any other
# whitespace. _CELL_ASCII_WS_RE is exactly \s ∩ ASCII (a fast path for
# the common all-ASCII cell); non-ASCII cells take the unicode \s+ path.
_CELL_ASCII_WS_RE = re.compile(r"[ \t\n\r\f\v\x1c-\x1f]+")
_UWS_RE = re.compile(r"\s+")


def _cell_collapse(s: str) -> str:
    return (_CELL_ASCII_WS_RE if s.isascii() else _UWS_RE).sub(" ", s)


def _collapse_spaces(s: str) -> str:
    # guard: the sub is a no-op unless a double space exists — most
    # rendered lines have none, and the guard is a C-speed substring scan
    # (re.sub calls were the top cost of extract_page, profiled round 4)
    return _MULTISPACE_RE.sub(" ", s) if "  " in s else s


def _collapse_ws(s: str) -> str:
    # the sub is the identity on a run with no \t\r\n\f and no double
    # space (every whitespace run is then one space already); the guard's
    # substring scans are far cheaper than a regex call per text node
    if ("  " in s or "\n" in s or "\t" in s or "\r" in s or "\f" in s):
        return _WS_RE.sub(" ", s)
    return s


def _tidy_lines(text: str) -> str:
    """Each line of ``text`` space-collapsed and stripped, the whole
    stripped: explicit ``<br>`` newlines are kept. Most inline runs are
    one line, which needs no split."""
    if "\n" not in text:
        return _collapse_spaces(text).strip()
    return "\n".join([_collapse_spaces(ln).strip()
                      for ln in text.split("\n")]).strip()


def _enhance_image(img: Node) -> None:
    """Reference scraper.py:517-528: ensure alt text ('Image' default) and a
    title derived from the src filename (query params stripped)."""
    if not img.get("alt"):
        img.set("alt", "Image")
    src = img.get("src") or ""
    if src and not img.get("title"):
        filename = src.split("/")[-1].split("?")[0]
        img.set("title", filename)


class _Renderer:
    def __init__(self) -> None:
        self.blocks: list[str] = []

    # -- inline rendering --------------------------------------------------
    def inline(self, node: Node) -> str:
        if node.tag == TEXT:
            return _collapse_ws(node.text)
        if node.tag == COMMENT or node.tag in _SKIP_TAGS:
            return ""
        tag = node.tag
        if tag == "br":
            return "\n"
        if tag == "img":
            alt = node.get("alt") or ""
            src = node.get("src") or ""
            title = node.get("title")
            if title:
                return f'![{alt}]({src} "{title}")'
            return f"![{alt}]({src})"
        inner = "".join(self.inline(c) for c in node.children)
        if tag == "a":
            href = node.get("href")
            if href:
                title = node.get("title")
                if title:
                    return f'[{inner}]({href} "{title}")'
                return f"[{inner}]({href})"
            return inner
        if tag in ("em", "i"):
            return f"*{inner}*" if inner.strip() else inner
        if tag in ("strong", "b"):
            return f"**{inner}**" if inner.strip() else inner
        if tag == "code":
            return f"`{inner}`" if inner.strip() else inner
        if tag in ("del", "s", "strike"):
            return f"~~{inner}~~" if inner.strip() else inner
        return inner

    def inline_block(self, node: Node) -> str:
        """Inline content of a block element, whitespace-normalized."""
        text = "".join(self.inline(c) for c in node.children)
        return _tidy_lines(text)

    # -- block rendering ---------------------------------------------------
    def block(self, node: Node) -> None:
        tag = node.tag
        if tag in (TEXT,):
            text = _collapse_ws(node.text).strip()
            if text:
                self.blocks.append(text)
            return
        if tag == COMMENT or tag in _SKIP_TAGS:
            return
        if tag in ("h1", "h2", "h3", "h4", "h5", "h6"):
            level = int(tag[1])
            text = self.inline_block(node)
            if text:
                self.blocks.append("#" * level + " " + text)
            return
        if tag == "p":
            text = self.inline_block(node)
            if text:
                self.blocks.append(text)
            return
        if tag == "pre":
            self.blocks.append(self._render_pre(node))
            return
        if tag in ("ul", "ol"):
            rendered = self._render_list(node, depth=0)
            if rendered:
                self.blocks.append(rendered)
            return
        if tag == "table":
            rendered = self._render_table(node)
            if rendered:
                self.blocks.append(rendered)
            return
        if tag == "blockquote":
            sub = _Renderer()
            sub.children_as_blocks(node)
            quoted = "\n\n".join(sub.blocks)
            if quoted:
                self.blocks.append(
                    "\n".join("> " + ln if ln else ">" for ln in quoted.split("\n"))
                )
            return
        if tag == "dl":
            rendered = self._render_dl(node)
            if rendered:
                self.blocks.append(rendered)
            return
        if tag == "hr":
            self.blocks.append("* * *")
            return
        if tag in _BLOCK_TAGS or tag == "#document":
            self.children_as_blocks(node)
            return
        # inline element floating at block level (span, a, img, text runs…):
        text = _tidy_lines(self.inline(node))
        if text:
            self.blocks.append(text)

    def children_as_blocks(self, node: Node) -> None:
        """Render children, merging consecutive inline runs into paragraphs."""
        run: list[str] = []

        def flush() -> None:
            if run:
                text = _tidy_lines("".join(run))
                if text:
                    self.blocks.append(text)
                run.clear()

        for child in node.children:
            if child.tag in _INLINE_RUN_TAGS:
                run.append(self.inline(child))
            else:
                flush()
                self.block(child)
        flush()

    # -- specific constructs ----------------------------------------------
    def _render_pre(self, node: Node) -> str:
        # mark_code semantics: html2text wraps <pre> content in [code]…[/code]
        # (post-process converts to ``` fences — reference scraper.py:632-639).
        code_child = node.find("code")
        target = code_child if code_child is not None else node
        raw = target.get_text()
        raw = raw.strip("\n")
        return "[code]\n" + raw + "\n[/code]"

    def _render_dl(self, node: Node) -> str:
        """Definition lists (html2text convention, fixture-matrix r4):
        each <dt> renders as its own line, each <dd> as a 4-space-indented
        line below it; consecutive terms/definitions stack in one block."""
        lines: list[str] = []
        for c in node.children:
            if c.tag == "dt":
                text = _collapse_spaces(self.inline(c)).strip()
                if text:
                    lines.append(text)
            elif c.tag == "dd":
                text = _collapse_spaces(self.inline(c)).strip()
                if text:
                    lines.append("    " + text)
        return "\n".join(lines)

    def _render_list(self, node: Node, depth: int) -> str:
        ordered = node.tag == "ol"
        lines: list[str] = []
        idx = 0
        for li in node.children:
            if li.tag != "li":
                continue
            idx += 1
            marker = f"{idx}. " if ordered else "* "
            # render the li: inline text first, nested lists after
            inline_parts: list[str] = []
            nested: list[str] = []
            for c in li.children:
                if c.tag in ("ul", "ol"):
                    sub = self._render_list(c, depth + 1)
                    if sub:
                        nested.append(sub)
                elif c.tag == "p":
                    inline_parts.append(self.inline_block(c))
                else:
                    inline_parts.append(self.inline(c))
            text = _collapse_spaces("".join(inline_parts)).strip()
            indent = "  " * depth
            if text:
                lines.append(indent + marker + text)
            for sub in nested:
                lines.append(sub)
        return "\n".join(lines)

    def _render_table(self, node: Node) -> str:
        rows: list[list[str]] = []
        header: list[str] = []
        for tr in node.find_all("tr"):
            cells = [c for c in tr.children if c.tag in ("td", "th")]
            if not cells:
                continue
            rendered = [
                _cell_collapse("".join(self.inline(cc) for cc in c.children)).strip()
                for c in cells
            ]
            if not header and all(c.tag == "th" for c in cells):
                header = rendered
            else:
                rows.append(rendered)
        if not header and rows:
            header = rows.pop(0)
        if not header:
            return ""
        out = ["| " + " | ".join(header) + " |",
               "| " + " | ".join("---" for _ in header) + " |"]
        for r in rows:
            r = r + [""] * (len(header) - len(r))
            out.append("| " + " | ".join(r[: len(header)]) + " |")
        return "\n".join(out)


def to_markdown(html: str) -> str:
    """Render cleaned HTML to raw markdown (pre post-processing)."""
    return to_markdown_tree(parse_html(html))


def to_markdown_tree(root: Node) -> str:
    """Tree-based render (no re-parse). Enhances the images under ``root``
    in place, so the tree's own html is changed too: serialize it first,
    as ``extract_page`` does. One walk enhances the images and finds the
    first ``<body>``; the render starts there, else at ``root``."""
    return render_markdown(root)


def render_markdown(root: Node, anchors: Optional[list[Node]] = None) -> str:
    """``to_markdown_tree(root)``. With an ``anchors`` list, its walk also
    appends every ``<a>`` under ``root`` to it in document order, the
    nodes ``root.find_all("a")`` returns, for the caller's link lists."""
    body = None
    stack = root.children[::-1]
    while stack:
        node = stack.pop()
        tag = node.tag
        if tag == "img":
            _enhance_image(node)
        elif tag == "a":
            if anchors is not None:
                anchors.append(node)
        elif tag == "body" and body is None:
            body = node
        children = node.children
        if children:
            stack.extend(children[::-1])
    r = _Renderer()
    r.children_as_blocks(body or root)
    return "\n\n".join(b for b in r.blocks if b) + "\n"


# ---------------------------------------------------------------------------
# Post-processing chain — faithful to reference scraper.py:543-662
# ---------------------------------------------------------------------------

_HTML_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)
# the reference's header fix is (#{1,6})([^#\s]); the same pattern led by a
# literal '#' lets ``re`` skip to each '#' instead of trying every character
_HEADER_FIX_RE = re.compile(r"(##{0,5})([^#\s])")
_LIST_FIX_RE = re.compile(r"(\n\s*)-([^\s])")
_EXCESSIVE_NEWLINES_RE = re.compile(r"\n{3,}")
_ORDERED_ITEM_RE = re.compile(r"^\s*\d+\.")
_LONELY_PUNCT_RE = re.compile(r"^\s*[\*\.\-]\s*$", re.MULTILINE)
_LONELY_STAR_RE = re.compile(r"^\s*\*\s*$", re.MULTILINE)
# The reference's spacing rules are (\n*)(core)(\n*) → \n\n\2\n\n for a
# code fence and for an image. Led by an optional newline run, they are
# tried at every character; these cores start with a literal. Spacing a
# core without taking the newlines around it leaves a run of two or more
# newlines on each side, and _collapse_newlines, which runs next, makes
# each such run two: the output is the reference's.
_CODE_CORE_RE = re.compile(r"```[\w]*\n.*?\n```", re.DOTALL)
_IMG_CORE_RE = re.compile(r"!\[.*?\]\(.*?\)")
_SPACED = r"\n\n\g<0>\n\n"
_LONELY_LINES = frozenset({"*", ".", "-"})


def _collapse_newlines(markdown: str) -> str:
    if "\n\n\n" in markdown:
        return _EXCESSIVE_NEWLINES_RE.sub("\n\n", markdown)
    return markdown


def post_process_markdown(markdown: str) -> str:
    """Operation-for-operation reimplementation of
    ``ContentExtractor._post_process_markdown`` (scraper.py:543-662), with
    the same output. Guards that change no output:

    - a regex pass is skipped when a substring check shows it cannot
      match, and the reference's trailing-space strip is left to the
      per-line ``rstrip``, which removes a superset of it;
    - the header fix and the code and image spacing rules search from
      their pattern's literal start (``_HEADER_FIX_RE``, ``_CODE_CORE_RE``,
      ``_IMG_CORE_RE``);
    - both lonely-punctuation passes run only when the line loop saw a
      line that strips to ``*``, ``.`` or ``-``: a match spans such a line
      (``\\s`` and ``str.strip`` share one whitespace set), and no later
      step before those passes makes one."""
    if "<!--" in markdown:
        markdown = _HTML_COMMENT_RE.sub("", markdown)

    markdown = markdown.replace("&nbsp;", " ")
    markdown = markdown.replace("\xa0", " ")

    if "#" in markdown:
        markdown = _HEADER_FIX_RE.sub(r"\1 \2", markdown)
    markdown = _LIST_FIX_RE.sub(r"\1- \2", markdown)

    lines = markdown.split("\n")
    processed: list[str] = []
    append = processed.append
    in_code_block = False
    in_list = False
    lonely = False
    prev_blank = True  # processed[-1] is whitespace-only, or there is none
    for line in lines:
        line = line.rstrip()
        if line.startswith("```"):
            in_code_block = not in_code_block
            append(line)
            prev_blank = False
            continue
        stripped = line.lstrip()
        if in_code_block:
            append(line)
            if stripped in _LONELY_LINES:
                lonely = True
            prev_blank = not stripped
            continue
        if not stripped:
            if not prev_blank:
                append("")
                prev_blank = True
            continue
        if stripped in _LONELY_LINES:
            lonely = True
        if line[0] == "#":
            if not prev_blank:
                append("")
            append(line)
            append("")
            prev_blank = True
            in_list = False
            continue
        if stripped[0] in "-*+" or _ORDERED_ITEM_RE.match(line):
            if not in_list and not prev_blank:
                append("")
            append(line)
            prev_blank = False
            in_list = True
            continue
        in_list = False
        if stripped.startswith("!["):
            if not prev_blank:
                append("")
            append(line)
            append("")
            prev_blank = True
            continue
        append(line)
        prev_blank = False
    markdown = "\n".join(processed)

    markdown = _collapse_newlines(markdown)
    if lonely:
        markdown = _LONELY_PUNCT_RE.sub("", markdown)
        markdown = _collapse_newlines(markdown)

    # literal patterns — plain str.replace, same semantics as the re.sub
    markdown = markdown.replace("**Copy\n[code]", "Copy\n\n```")
    markdown = markdown.replace("[/code]", "```")
    markdown = markdown.replace("[code]", "```")
    markdown = markdown.replace("[/code]", "```")

    if lonely:
        markdown = _LONELY_PUNCT_RE.sub("", markdown)
    markdown = _collapse_newlines(markdown)

    if "```" in markdown:
        markdown = _CODE_CORE_RE.sub(_SPACED, markdown)
    if "![" in markdown:
        markdown = _IMG_CORE_RE.sub(_SPACED, markdown)
    markdown = _collapse_newlines(markdown)

    markdown = _LONELY_STAR_RE.sub("", markdown)
    markdown = _collapse_newlines(markdown)

    return markdown.strip()


def html_to_markdown(html: str) -> str:
    """Full conversion: render + post-process (scraper.py:507-541)."""
    return post_process_markdown(to_markdown(html))
