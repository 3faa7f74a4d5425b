package sqlmini

import (
	"strings"
	"testing"
)

// The EXPLAIN tests turn the paper's central performance claim into a
// functional assertion: the same predicate plans nested loops in CNF and
// hash joins in DNF.

func explainDB(t *testing.T) *DB {
	t.Helper()
	db := testDB(t)
	mustExec(t, db, `create table tp (CC text, AC text, CT text)`)
	mustExec(t, db, `insert into tp values ('01','908','MH'), ('01','212','NYC')`)
	return db
}

func mustExplain(t *testing.T, db *DB, sql string) string {
	t.Helper()
	out, err := db.Explain(sql)
	if err != nil {
		t.Fatalf("Explain(%q): %v", sql, err)
	}
	return out
}

func TestExplainCNFPlansNestedLoop(t *testing.T) {
	db := explainDB(t)
	// The Figure 5 CNF shape: every conjunct contains OR.
	out := mustExplain(t, db, `
		select t._rowid from cust t, tp p
		where (t.CC = p.CC or p.CC = '_') and (t.AC = p.AC or p.AC = '_')
		  and (t.CT <> p.CT and p.CT <> '_')`)
	if !strings.Contains(out, "nested loop p") {
		t.Errorf("CNF must plan a nested loop:\n%s", out)
	}
	if strings.Contains(out, "hash join") {
		t.Errorf("CNF must not find join keys:\n%s", out)
	}
	if !strings.Contains(out, "single conjunction") {
		t.Errorf("CNF is one conjunction:\n%s", out)
	}
}

func TestExplainDNFPlansHashJoins(t *testing.T) {
	db := explainDB(t)
	// Two representative disjuncts of the DNF expansion.
	out := mustExplain(t, db, `
		select t._rowid from cust t, tp p
		where (t.CC = p.CC and t.AC = p.AC and t.CT <> p.CT and p.CT <> '_')
		   or (t.CC = p.CC and p.AC = '_' and t.CT <> p.CT and p.CT <> '_')`)
	if !strings.Contains(out, "DNF, 2 disjuncts") {
		t.Errorf("expected 2 disjuncts:\n%s", out)
	}
	// First disjunct joins on both keys, second on CC only.
	if !strings.Contains(out, "hash join p on (p.CC, p.AC)") {
		t.Errorf("disjunct 1 should hash join on CC and AC:\n%s", out)
	}
	if !strings.Contains(out, "hash join p on (p.CC)") {
		t.Errorf("disjunct 2 should hash join on CC:\n%s", out)
	}
	if strings.Contains(out, "nested loop") {
		t.Errorf("no disjunct should nested-loop:\n%s", out)
	}
}

func TestExplainPrefiltersAndResiduals(t *testing.T) {
	db := explainDB(t)
	out := mustExplain(t, db, `
		select t._rowid from cust t, tp p
		where t.CC = '01' and t.CC = p.CC and t.CT <> p.CT`)
	if !strings.Contains(out, "scan t (6 rows, 1 prefilter(s))") {
		t.Errorf("t.CC = '01' should be a prefilter on t:\n%s", out)
	}
	if !strings.Contains(out, "1 residual filter(s)") {
		t.Errorf("t.CT <> p.CT should be a residual filter:\n%s", out)
	}
}

func TestExplainAggregateAndPost(t *testing.T) {
	db := explainDB(t)
	out := mustExplain(t, db, `
		select distinct t.CC, t.AC from cust t
		group by t.CC, t.AC
		having count(distinct t.CT) > 1
		order by CC`)
	if !strings.Contains(out, "aggregate (2 group key(s), 1 aggregate(s), having)") {
		t.Errorf("aggregate line missing:\n%s", out)
	}
	if !strings.Contains(out, "distinct, order by 1 key(s)") {
		t.Errorf("post-processing line missing:\n%s", out)
	}
}

func TestExplainDerivedTable(t *testing.T) {
	db := explainDB(t)
	out := mustExplain(t, db, `
		select m.CT from (select t.CT as CT from cust t where t.CC = '01') m
		group by m.CT`)
	if !strings.Contains(out, "derived table m:") {
		t.Errorf("derived table not explained:\n%s", out)
	}
	if !strings.Contains(out, "scan t (6 rows, 1 prefilter(s))") {
		t.Errorf("inner plan not shown:\n%s", out)
	}
}

func TestExplainThreeWayJoinOrder(t *testing.T) {
	db := explainDB(t)
	mustExec(t, db, `create table ty (id text, v text)`)
	mustExec(t, db, `create table tx (id text, CC text)`)
	mustExec(t, db, `insert into tx values ('1','01')`)
	mustExec(t, db, `insert into ty values ('1','x')`)
	// R has no equi-link; tx links to R via CC, ty links to tx via id.
	out := mustExplain(t, db, `
		select t._rowid from cust t, tx, ty
		where tx.id = ty.id and t.CC = tx.CC`)
	iScan := strings.Index(out, "scan t")
	iTx := strings.Index(out, "hash join tx on (tx.CC)")
	iTy := strings.Index(out, "hash join ty on (ty.id)")
	if iScan < 0 || iTx < 0 || iTy < 0 || !(iScan < iTx && iTx < iTy) {
		t.Errorf("join order wrong:\n%s", out)
	}
}

func TestExplainErrors(t *testing.T) {
	db := explainDB(t)
	if _, err := db.Explain(`insert into tp values ('a','b','c')`); err == nil {
		t.Error("Explain must reject non-SELECT")
	}
	if _, err := db.Explain(`select * from missing`); err == nil {
		t.Error("Explain must surface planning errors")
	}
	if _, err := db.Explain(`not sql`); err == nil {
		t.Error("Explain must surface parse errors")
	}
}

// TestExplainMatchesExecution: planning inside Explain must not corrupt
// subsequent execution (plans are rebuilt per query).
func TestExplainMatchesExecution(t *testing.T) {
	db := explainDB(t)
	sql := `select t._rowid from cust t, tp p
		where t.CC = p.CC and t.AC = p.AC and t.CT <> p.CT and p.CT <> '_'
		order by _rowid`
	mustExplain(t, db, sql)
	res := mustQuery(t, db, sql)
	if len(res.Rows) != 2 {
		t.Errorf("execution after Explain returned %d rows, want 2", len(res.Rows))
	}
}

// TestExplainCountsHoistedFilters: in the CNF shape, the OR conjuncts'
// pattern-only disjuncts (p.CC = '_') are hoisted to once per p row; the
// step still plans as a nested loop.
func TestExplainCountsHoistedFilters(t *testing.T) {
	db := explainDB(t)
	out := mustExplain(t, db, `
		select t._rowid from cust t, tp p
		where (t.CC = p.CC or p.CC = '_') and (t.AC = p.AC or p.AC = '_')
		  and (t.CT <> p.CT and p.CT <> '_')`)
	if !strings.Contains(out, "nested loop p (2 rows, 1 prefilter(s), 3 residual filter(s), 2 hoisted)") {
		t.Errorf("want 2 of 3 residual filters hoisted:\n%s", out)
	}
}
