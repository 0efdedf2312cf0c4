// Package plan defines the logical query plan — the one optimizable
// representation every layer below the parser shares. The parser produces an
// AST (sqlparser.Select); FromAST lowers it into a tree of typed relational
// operators; Optimize rewrites the tree (projection pruning, predicate
// pushdown toward the scans, constant folding); the engine compiles the tree
// into the batch-iterator pipeline; the fragment package splits the tree into
// pushed-down stages and the network package places those stages on the peer
// chain. Privacy rewrites surface in the tree as Filter/Project/Aggregate
// nodes carrying Provenance, so EXPLAIN output and audits can point at the
// exact operator a policy injected.
//
// The package also owns the block algebra: Block is the typed decomposition
// of one query block ([Limit][Sort][Distinct][Aggregate|Window|Project]
// [Filter*] over a source), with SplitBlock/Rebuild as exact inverses and
// Requirements as the single column-requirement analysis. The optimizer,
// the engine and the fragmenter all consume Block, so the block-shape and
// column-requirement rules have exactly one implementation (the golden plan
// snapshots in testdata/ pin the optimized tree shapes).
//
// Scalar expressions inside plan nodes reuse the sqlparser expression
// vocabulary (ColumnRef, BinaryExpr, FuncCall, ...): the expression language
// is shared between the SQL surface and the plan; what the plan replaces is
// walking the *statement* AST (Select/TableRef trees) below the parser.
package plan
