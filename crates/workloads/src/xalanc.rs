//! `xalanc` (SPEC CPU2017): XSLT processor.
//!
//! "xalanc displays significant indirection [in] its call chains, requiring
//! the traversal of tens of stack frames to properly appreciate the context
//! in which allocations have been made" (§5.2). The model routes every
//! node allocation through a ten-deep parse chain — including an indirect
//! call and an indirect dispatch shared by all node kinds — into a memory-
//! manager wrapper with the program's single malloc site. Only deep
//! context distinguishes element, attribute, and text allocations; the
//! paper reports HALO's best CPU2017 speedup here (~16%).

use crate::util::{
    begin_main, counted_loop, end_main, list_push, malloc_wrapper, r, walk_list, while_nonzero,
    SCALE,
};
use crate::{RunSpec, Workload};
use halo_vm::{FuncId, FunctionBuilder, ProgramBuilder, Reg, Width};

const PARSE_DEPTH: usize = 10;
const TRANSFORM_PASSES: i64 = 12;

/// The parse machinery `xalanc` and `xalanc-mt` share: a single-site
/// memory manager, one constructor per node kind, and a parse chain that
/// reaches the constructors through nested, partly indirect frames.
pub(crate) struct Parser {
    xalan_alloc: FuncId,
    create_elem: FuncId,
    create_attr: FuncId,
    create_text: FuncId,
    parse: Vec<FuncId>,
}

impl Parser {
    /// Declare the machinery with a `depth`-deep parse chain.
    pub(crate) fn declare(pb: &mut ProgramBuilder, depth: usize) -> Self {
        Parser {
            xalan_alloc: pb.declare("xalan_alloc"),
            create_elem: pb.declare("create_elem"),
            create_attr: pb.declare("create_attr"),
            create_text: pb.declare("create_text"),
            parse: (0..depth).map(|i| pb.declare(&format!("parse{i}"))).collect(),
        }
    }

    /// Define every declared function. The text-node constructor runs
    /// `text` after tagging the node (in `r1`; the parent element is `r0`).
    pub(crate) fn define(&self, pb: &mut ProgramBuilder, text: impl FnOnce(&mut FunctionBuilder)) {
        // The memory manager: one malloc site for every node kind.
        malloc_wrapper(pb.define(self.xalan_alloc), None);
        // Element: [next:8][tag:8][attrs:8][text:8][ns:8][pad] = 48.
        self.constructor(pb, self.create_elem, 48, 5, |_| {});
        // Attribute: [next:8][value:8][norm:8][pad:8] = 32; linked onto the
        // parent element passed down the parse chain.
        self.constructor(pb, self.create_attr, 32, 2, |f| {
            let parent = r(0);
            f.load(r(4), parent, 16, Width::W8); // parent.attrs
            f.store(r(4), r(1), 0, Width::W8); // attr.next
            f.store(r(1), parent, 16, Width::W8);
        });
        // Text node: 32 bytes (attribute size class).
        self.constructor(pb, self.create_text, 32, 1, text);

        // The parse chain: parse_i(kind_fn, parent) forwards to parse_{i+1};
        // the middle hop is an *indirect* call (a register-held target), and
        // the bottom dispatches indirectly through the kind function id —
        // both call sites are shared by every node kind.
        let depth = self.parse.len();
        for (i, &id) in self.parse.iter().enumerate() {
            let mut f = pb.define(id);
            f.argc(2); // r0 = kind function id, r1 = parent
            if i + 1 < depth {
                if i == depth / 2 {
                    // Indirect hop to the next parse level.
                    f.imm(r(2), self.parse[i + 1].0 as i64);
                    f.call_indirect(r(2), &[r(0), r(1)], Some(r(3)));
                } else {
                    f.call(self.parse[i + 1], &[r(0), r(1)], Some(r(3)));
                }
            } else {
                // Bottom: dispatch on the kind function id.
                f.call_indirect(r(0), &[r(1)], Some(r(3)));
            }
            f.ret(Some(r(3)));
            f.finish();
        }
    }

    /// Define constructor `id(parent)`: allocate a `bytes`-byte node through
    /// the memory manager into `r1`, write `tag` at offset 8, run `body`,
    /// return the node.
    fn constructor(
        &self,
        pb: &mut ProgramBuilder,
        id: FuncId,
        bytes: i64,
        tag: i64,
        body: impl FnOnce(&mut FunctionBuilder),
    ) {
        let mut f = pb.define(id);
        f.argc(1);
        f.imm(r(2), bytes);
        f.call(self.xalan_alloc, &[r(2)], Some(r(1)));
        f.imm(r(3), tag);
        f.store(r(3), r(1), 8, Width::W8);
        body(&mut f);
        f.ret(Some(r(1)));
        f.finish();
    }

    /// Load the node-kind function ids into `r21..=r23` for
    /// [`Parser::parse_document`].
    pub(crate) fn load_kinds(&self, m: &mut FunctionBuilder) {
        m.imm(r(21), self.create_elem.0 as i64);
        m.imm(r(22), self.create_attr.0 as i64);
        m.imm(r(23), self.create_text.0 as i64);
    }

    /// Parse one document — an element, two attributes and one text node,
    /// each through the full chain. `link` runs once the element is in `r3`.
    pub(crate) fn parse_document(
        &self,
        m: &mut FunctionBuilder,
        link: impl FnOnce(&mut FunctionBuilder),
    ) {
        m.imm(r(2), 0);
        m.call(self.parse[0], &[r(21), r(2)], Some(r(3))); // element
        link(m);
        m.call(self.parse[0], &[r(22), r(3)], Some(r(4))); // attr 1
        m.call(self.parse[0], &[r(22), r(3)], Some(r(4))); // attr 2
        m.call(self.parse[0], &[r(23), r(3)], Some(r(5))); // text (cold)
    }
}

/// Walk the element list at `dom`, normalising every attribute against its
/// element's tag.
pub(crate) fn normalise_attrs(m: &mut FunctionBuilder, dom: Reg) {
    walk_list(m, dom, r(6), |m| {
        m.load(r(1), r(6), 8, Width::W8); // tag
        m.load(r(2), r(6), 16, Width::W8); // attr head
        while_nonzero(m, r(2), |m| {
            m.load(r(3), r(2), 8, Width::W8); // attr.value
            m.add(r(3), r(3), r(1));
            m.store(r(3), r(2), 16, Width::W8); // attr.norm
            m.load(r(2), r(2), 0, Width::W8);
        });
    });
}

/// Build the xalanc workload.
pub fn build() -> Workload {
    let mut pb = ProgramBuilder::new();
    let parser = Parser::declare(&mut pb, PARSE_DEPTH);
    // The text node is written once and its pointer dropped.
    parser.define(&mut pb, |_| {});

    let mut m = begin_main(&mut pb);
    let elements = SCALE;
    let dom = r(9);
    m.imm(dom, 0);
    parser.load_kinds(&mut m);
    // Parse: element + two attributes + one text node each.
    counted_loop(&mut m, r(24), elements, |m| {
        parser.parse_document(m, |m| list_push(m, dom, r(3)));
    });
    // Transform: walk the DOM, normalising attributes.
    m.imm(r(25), TRANSFORM_PASSES);
    counted_loop(&mut m, r(26), r(25), |m| normalise_attrs(m, dom));
    let main = end_main(m);

    Workload {
        name: "xalanc",
        program: pb.finish(main),
        train: RunSpec { seed: 777, arg: 500 },
        reference: RunSpec { seed: 888, arg: 5000 },
        note: "ten-deep parse chain with indirect calls into a single-site \
               memory manager; only deep context separates node kinds",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::run_at_train_scale;

    #[test]
    fn xalanc_parses_deep_and_transforms() {
        let w = build();
        let stats = run_at_train_scale(&w);
        assert_eq!(stats.allocs, 4 * w.train.arg as u64);
        assert!(stats.max_depth > PARSE_DEPTH, "deep call chains");
    }
}
