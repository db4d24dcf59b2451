package policy

// The table harness mirrors `opa test`: a policy is pinned by data
// tables of given-context → expected-decision rows rather than by ad hoc
// Go assertions. The package's tables live in testdata JSON, which its
// tests load; Go code may also build them inline.

// TableRow is one pinned decision: evaluate the table's rule against
// Given and expect Want. Rows evaluate in order against ONE compiled
// rule instance, so stateful rules (probability, ratewindow, bandit) are
// pinned as sequences, not independent samples.
type TableRow struct {
	Name  string             `json:"name"`
	Given map[string]float64 `json:"given"`
	Want  bool               `json:"want"`
}

// Table is one named test: a rule spec, the seed its stateful nodes
// compile against, and the row sequence.
type Table struct {
	Name string     `json:"name"`
	Seed uint64     `json:"seed"`
	Rule *RuleSpec  `json:"rule"`
	Rows []TableRow `json:"rows"`
}

// RowResult reports one row's outcome.
type RowResult struct {
	Row  TableRow
	Got  bool
	Pass bool
}

// TableResult reports one table's outcome. Err is non-nil when the rule
// failed to compile (no rows ran).
type TableResult struct {
	Table  string
	Err    error
	Rows   []RowResult
	Failed int
}

// Pass reports whether the table compiled and every row matched.
func (r *TableResult) Pass() bool { return r.Err == nil && r.Failed == 0 }

// RunTable compiles the table's rule once and evaluates the rows in
// order, comparing each decision to the row's expectation.
func RunTable(t *Table) *TableResult {
	res := &TableResult{Table: t.Name}
	rule, err := t.Rule.Compile(t.Seed)
	if err != nil {
		res.Err = err
		return res
	}
	for _, row := range t.Rows {
		got := rule.Eval(MapCtx(row.Given))
		rr := RowResult{Row: row, Got: got, Pass: got == row.Want}
		if !rr.Pass {
			res.Failed++
		}
		res.Rows = append(res.Rows, rr)
	}
	return res
}
