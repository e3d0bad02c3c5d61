"""A minimal DOT well-formedness checker for the `graph` output."""


def check_dot(text: str) -> list[str]:
    """Minimal DOT well-formedness check: balanced braces, edges over declared nodes.

    Returns a list of problems; empty means well-formed enough to hand to dot.
    """
    problems = []
    if text.count("{") != text.count("}"):
        problems.append("unbalanced braces")
    declared: set[str] = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line.startswith('"'):
            continue
        parts = line.split('"')
        if "->" in line:
            ids = [parts[1], parts[3]] if len(parts) > 3 else []
            for node in ids:
                if node not in declared:
                    problems.append(f"edge references undeclared node {node!r}")
        elif len(parts) > 1:
            declared.add(parts[1])
    return problems
