//! The tuple-keyed SEQUITUR builder `halo_hds::Sequitur` was until PR 25,
//! retained as the oracle for `sequitur_reference.rs`.
//!
//! The shipped builder keys its digram index by one packed `u64` under
//! `FastIntState`; this one keeps the original `HashMap<(Sym, Sym), u32>`
//! under SipHash, and otherwise the same arena, rule and substitution
//! logic, line for line. The key is a type parameter only so that the
//! suite can plant a broken packing ([`DigramKey`]) and watch the check
//! fail; [`TupleKey`] is the oracle.

use halo_hds::Sym;
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;

const NIL: u32 = u32::MAX;

/// How a digram is keyed in the index.
pub trait DigramKey {
    type Key: Copy + Eq + Hash + Debug;
    fn of(a: Sym, b: Sym) -> Self::Key;
}

/// The original key: the symbol pair itself.
pub struct TupleKey;

impl DigramKey for TupleKey {
    type Key = (Sym, Sym);

    fn of(a: Sym, b: Sym) -> (Sym, Sym) {
        (a, b)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeSym {
    Guard(u32),
    Sym(Sym),
}

#[derive(Debug, Clone, Copy)]
struct Node {
    sym: NodeSym,
    prev: u32,
    next: u32,
}

/// The reference builder.
pub struct RefSequitur<K: DigramKey> {
    nodes: Vec<Node>,
    freed: Vec<u32>,
    /// Guard node per rule; `NIL` marks a dead (inlined) rule.
    guards: Vec<u32>,
    uses: Vec<u32>,
    digrams: HashMap<K::Key, u32>,
}

impl<K: DigramKey> RefSequitur<K> {
    /// A builder with an empty start rule (rule 0).
    pub fn new() -> Self {
        let mut s = RefSequitur {
            nodes: Vec::new(),
            freed: Vec::new(),
            guards: Vec::new(),
            uses: Vec::new(),
            digrams: HashMap::new(),
        };
        s.new_rule();
        s
    }

    fn new_rule(&mut self) -> u32 {
        let r = self.guards.len() as u32;
        let g = self.alloc(NodeSym::Guard(r));
        self.nodes[g as usize].prev = g;
        self.nodes[g as usize].next = g;
        self.guards.push(g);
        self.uses.push(0);
        r
    }

    fn alloc(&mut self, sym: NodeSym) -> u32 {
        if let NodeSym::Sym(Sym::R(r)) = sym {
            self.uses[r as usize] += 1;
        }
        if let Some(i) = self.freed.pop() {
            self.nodes[i as usize] = Node { sym, prev: NIL, next: NIL };
            i
        } else {
            self.nodes.push(Node { sym, prev: NIL, next: NIL });
            (self.nodes.len() - 1) as u32
        }
    }

    fn dispose(&mut self, n: u32) {
        if let NodeSym::Sym(Sym::R(r)) = self.nodes[n as usize].sym {
            self.uses[r as usize] -= 1;
        }
        self.freed.push(n);
    }

    fn next(&self, n: u32) -> u32 {
        self.nodes[n as usize].next
    }

    fn prev(&self, n: u32) -> u32 {
        self.nodes[n as usize].prev
    }

    fn is_guard(&self, n: u32) -> bool {
        matches!(self.nodes[n as usize].sym, NodeSym::Guard(_))
    }

    fn sym(&self, n: u32) -> Option<Sym> {
        match self.nodes[n as usize].sym {
            NodeSym::Guard(_) => None,
            NodeSym::Sym(s) => Some(s),
        }
    }

    fn digram_key(&self, n: u32) -> Option<K::Key> {
        let a = self.sym(n)?;
        let b = self.sym(self.next(n))?;
        Some(K::of(a, b))
    }

    fn delete_digram(&mut self, n: u32) {
        if let Some(key) = self.digram_key(n) {
            if self.digrams.get(&key) == Some(&n) {
                self.digrams.remove(&key);
            }
        }
    }

    fn join(&mut self, l: u32, r: u32) {
        if self.next(l) != NIL {
            self.delete_digram(l);
        }
        self.nodes[l as usize].next = r;
        self.nodes[r as usize].prev = l;
    }

    fn insert_after(&mut self, pos: u32, node: u32) {
        let nx = self.next(pos);
        self.join(node, nx);
        self.join(pos, node);
    }

    fn remove_node(&mut self, n: u32) {
        let p = self.prev(n);
        let nx = self.next(n);
        self.delete_digram(n);
        self.join(p, nx);
        self.dispose(n);
    }

    /// Append a terminal to the start rule, restoring both invariants.
    pub fn push(&mut self, t: u32) {
        let g = self.guards[0];
        let last = self.prev(g);
        let n = self.alloc(NodeSym::Sym(Sym::T(t)));
        self.insert_after(last, n);
        if !self.is_guard(last) {
            self.check(last);
        }
    }

    fn check(&mut self, n: u32) -> bool {
        let Some(key) = self.digram_key(n) else { return false };
        match self.digrams.get(&key).copied() {
            None => {
                self.digrams.insert(key, n);
                false
            }
            Some(m) if m == n => false,
            Some(m) => {
                if self.next(m) != n && self.next(n) != m {
                    self.do_match(n, m);
                }
                true
            }
        }
    }

    fn do_match(&mut self, ss: u32, m: u32) {
        let m_prev = self.prev(m);
        let m_next_next = self.next(self.next(m));
        let r;
        if self.is_guard(m_prev) && m_prev == m_next_next {
            let NodeSym::Guard(rule) = self.nodes[m_prev as usize].sym else { unreachable!() };
            r = rule;
            self.substitute(ss, r);
        } else {
            let s1 = self.sym(ss).expect("digram head");
            let s2 = self.sym(self.next(ss)).expect("digram tail");
            r = self.new_rule();
            let g = self.guards[r as usize];
            let n1 = self.alloc(NodeSym::Sym(s1));
            self.insert_after(g, n1);
            let n2 = self.alloc(NodeSym::Sym(s2));
            self.insert_after(n1, n2);
            self.substitute(m, r);
            self.substitute(ss, r);
            let key = self.digram_key(n1).expect("rule body digram");
            self.digrams.insert(key, n1);
        }
        let first = self.next(self.guards[r as usize]);
        if let Some(Sym::R(r2)) = self.sym(first) {
            if self.uses[r2 as usize] == 1 {
                self.expand(first);
            }
        }
    }

    fn substitute(&mut self, first: u32, r: u32) {
        let q = self.prev(first);
        let second = self.next(first);
        self.remove_node(second);
        self.remove_node(first);
        let nn = self.alloc(NodeSym::Sym(Sym::R(r)));
        self.insert_after(q, nn);
        if !self.is_guard(q) && self.check(q) {
            return;
        }
        self.check(nn);
    }

    fn expand(&mut self, use_node: u32) {
        let Some(Sym::R(r2)) = self.sym(use_node) else { unreachable!("expand on rule use") };
        let q = self.prev(use_node);
        let nx = self.next(use_node);
        let g = self.guards[r2 as usize];
        let f = self.next(g);
        let l = self.prev(g);
        self.delete_digram(use_node);
        self.join(q, f);
        self.join(l, nx);
        if let Some(key) = self.digram_key(l) {
            self.digrams.insert(key, l);
        }
        self.dispose(use_node);
        self.freed.push(g);
        self.guards[r2 as usize] = NIL;
    }

    /// Ids of live rules (0 is the start rule).
    pub fn live_rules(&self) -> Vec<u32> {
        (0..self.guards.len() as u32).filter(|&r| self.guards[r as usize] != NIL).collect()
    }

    /// The body of live rule `r`.
    pub fn body(&self, r: u32) -> Vec<Sym> {
        let g = self.guards[r as usize];
        assert_ne!(g, NIL, "rule {r} was inlined");
        let mut out = Vec::new();
        let mut n = self.next(g);
        while n != g {
            out.push(self.sym(n).expect("body symbol"));
            n = self.next(n);
        }
        out
    }

    /// Number of uses of rule `r` across all bodies.
    pub fn rule_uses(&self, r: u32) -> u32 {
        self.uses[r as usize]
    }

    /// How many times each rule occurs in the derivation of the input,
    /// counted by walking the derivation tree itself (the shipped
    /// `Grammar` propagates counts in topological order instead).
    pub fn frequencies(&self) -> Vec<u64> {
        fn walk<K: DigramKey>(s: &RefSequitur<K>, r: u32, freq: &mut [u64]) {
            for sym in s.body(r) {
                if let Sym::R(c) = sym {
                    freq[c as usize] += 1;
                    walk(s, c, freq);
                }
            }
        }
        let mut freq = vec![0; self.guards.len()];
        freq[0] = 1;
        walk(self, 0, &mut freq);
        freq
    }
}
