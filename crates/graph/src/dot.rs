//! Graphviz (DOT) export of affinity graphs — the rendering behind the
//! paper's Figure 9, where nodes are allocation contexts coloured by
//! group, edge thickness encodes weight, and edges under a threshold are
//! hidden "to reduce visual noise".

use crate::affinity::{AffinityGraph, NodeId};
use crate::grouping::Group;
use std::fmt::Write;

/// Palette for group colouring (cycled when there are many groups).
const COLOURS: &[&str] =
    &["skyblue", "salmon", "palegreen", "gold", "plum", "khaki", "lightcyan", "orange"];

/// `label` as the inside of a DOT quoted string: a `"` would end the
/// string, a `\` would start an escape sequence (or swallow the closing
/// quote) and a raw line break splits the statement.
fn escape_label(label: &str) -> String {
    label.replace('\\', "\\\\").replace('"', "'").replace('\n', "\\n")
}

/// Render `graph` as a DOT document.
///
/// * `labels` supplies per-node text (e.g. context names from the
///   profiler); nodes without one use their id.
/// * `groups` drives fill colours; ungrouped nodes are grey, matching the
///   paper's figure.
/// * Edges lighter than `min_edge_weight` are omitted.
///
/// The output is byte-deterministic: nodes are emitted in id order and
/// edges in ascending `(u, v)` order ([`AffinityGraph::edges`] guarantees
/// it in both storage phases), so the same graph renders to the same
/// document regardless of process, insertion order, or finalisation
/// state. The old HashMap-backed store leaked its per-process iteration
/// order into the edge lines; `deterministic_regardless_of_build_order`
/// pins the fix.
pub fn to_dot(
    graph: &AffinityGraph,
    labels: &dyn Fn(NodeId) -> String,
    groups: &[Group],
    min_edge_weight: u64,
) -> String {
    let mut out = String::from("graph affinity {\n  layout=neato;\n  overlap=false;\n");
    let group_of = |n: NodeId| groups.iter().position(|g| g.members.contains(&n));
    let max_weight = graph.edges().map(|(_, _, w)| w).max().unwrap_or(1).max(1);

    for n in graph.nodes() {
        let colour = match group_of(n) {
            Some(g) => COLOURS[g % COLOURS.len()],
            None => "gray80",
        };
        let _ = writeln!(
            out,
            "  n{} [label=\"{}\\n{} accesses\", style=filled, fillcolor={}];",
            n.0,
            escape_label(&labels(n)),
            graph.accesses(n),
            colour
        );
    }
    for (u, v, w) in graph.edges() {
        if w < min_edge_weight || u == v {
            continue;
        }
        // Pen width 1–8 scaled by relative weight, like the figure's
        // thickness encoding.
        let pen = 1.0 + 7.0 * (w as f64 / max_weight as f64);
        let _ = writeln!(out, "  n{} -- n{} [penwidth={pen:.1}, label=\"{w}\"];", u.0, v.0);
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (AffinityGraph, Vec<Group>) {
        let mut g = AffinityGraph::new();
        let a = g.add_node(100);
        let b = g.add_node(90);
        let c = g.add_node(5);
        g.add_edge_weight(a, b, 500);
        g.add_edge_weight(b, c, 2);
        g.add_edge_weight(a, a, 30);
        let groups = vec![Group { members: vec![a, b], weight: 530, accesses: 190 }];
        (g, groups)
    }

    #[test]
    fn dot_marks_groups_and_hides_weak_edges() {
        let (g, groups) = sample();
        let dot = to_dot(&g, &|n| format!("ctx{}", n.0), &groups, 10);
        assert!(dot.starts_with("graph affinity {"));
        assert!(dot.contains("fillcolor=skyblue"), "grouped nodes coloured");
        assert!(dot.contains("fillcolor=gray80"), "ungrouped node grey");
        assert!(dot.contains("n0 -- n1"), "strong edge drawn");
        assert!(!dot.contains("n1 -- n2"), "weak edge hidden");
        assert!(!dot.contains("n0 -- n0"), "loops not drawn");
        assert!(dot.contains("label=\"500\""));
    }

    /// Two graphs with the same logical content but different edge
    /// insertion orders (and different storage phases) must render to
    /// byte-identical documents — edge lines follow (u, v) order, not
    /// the edge store's internal layout.
    #[test]
    fn deterministic_regardless_of_build_order() {
        let edges: Vec<(u32, u32, u64)> =
            (0..40u32).map(|i| (i % 7, 7 + (i * 13) % 23, 10 + i as u64)).collect();
        let build = |order: &[usize], finalise: bool| {
            let mut g = AffinityGraph::new();
            for _ in 0..30 {
                g.add_node(50);
            }
            for &i in order {
                let (u, v, w) = edges[i];
                g.add_edge_weight(NodeId(u), NodeId(v), w);
            }
            if finalise {
                g.finalise();
            }
            to_dot(&g, &|n| format!("ctx{}", n.0), &[], 1)
        };
        let forward: Vec<usize> = (0..edges.len()).collect();
        let reverse: Vec<usize> = (0..edges.len()).rev().collect();
        let scrambled: Vec<usize> = (0..edges.len()).map(|i| (i * 17) % edges.len()).collect();
        let reference = build(&forward, false);
        assert_eq!(reference, build(&reverse, false), "reverse insertion");
        assert_eq!(reference, build(&scrambled, false), "scrambled insertion");
        assert_eq!(reference, build(&forward, true), "finalised rendering");
        // And rendering the same graph twice is trivially stable.
        assert_eq!(build(&reverse, true), build(&reverse, true));
    }

    #[test]
    fn labels_are_quoted_safely() {
        let (g, groups) = sample();
        let dot = to_dot(&g, &|_| "say \"hi\"".to_string(), &groups, 1);
        assert!(!dot.contains("\"say \"hi\"\""), "double quotes escaped");
        assert!(dot.contains("say 'hi'"));
        // A trailing backslash must not swallow the label's closing quote,
        // and a line break must not split the node statement.
        let dot = to_dot(&g, &|_| "a\\b\nc\\".to_string(), &groups, 1);
        assert!(dot.contains("[label=\"a\\\\b\\nc\\\\\\n100 accesses\","), "{dot}");
        assert_eq!(dot.lines().count(), to_dot(&g, &|_| String::new(), &groups, 1).lines().count());
    }
}
