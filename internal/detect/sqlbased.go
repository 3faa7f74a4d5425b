package detect

import (
	"database/sql"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/sqldriver"
	"repro/internal/sqlgen"
	"repro/internal/sqlmini"
)

// DataTable is the name the instance is registered under in the catalog.
const DataTable = "R"

// queryRunner abstracts "run SQL, get rows of strings" so the detector can
// either call the engine directly or go through database/sql.
type queryRunner interface {
	query(sqlText string) ([][]relation.Value, error)
	close() error
}

type engineRunner struct{ db *sqlmini.DB }

func (r engineRunner) query(sqlText string) ([][]relation.Value, error) {
	res, err := r.db.Query(sqlText)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

func (r engineRunner) close() error { return nil }

type driverRunner struct {
	handle *sql.DB
	dsn    string
}

func (r driverRunner) query(sqlText string) ([][]relation.Value, error) {
	rows, err := r.handle.Query(sqlText)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		return nil, err
	}
	var out [][]relation.Value
	for rows.Next() {
		vals := make([]relation.Value, len(cols))
		ptrs := make([]any, len(cols))
		for i := range vals {
			ptrs[i] = &vals[i]
		}
		if err := rows.Scan(ptrs...); err != nil {
			return nil, err
		}
		out = append(out, vals)
	}
	return out, rows.Err()
}

func (r driverRunner) close() error {
	err := r.handle.Close()
	sqldriver.Unregister(r.dsn)
	return err
}

// dsnCounter names each ViaDriver detection's catalog; concurrent
// detections must never share a DSN.
var dsnCounter atomic.Int64

func newRunner(db *sqlmini.DB, opts Options) (queryRunner, error) {
	if !opts.ViaDriver {
		return engineRunner{db: db}, nil
	}
	dsn := fmt.Sprintf("detect-%d", dsnCounter.Add(1))
	sqldriver.Register(dsn, db)
	handle, err := sql.Open(sqldriver.DriverName, dsn)
	if err != nil {
		sqldriver.Unregister(dsn)
		return nil, err
	}
	return driverRunner{handle: handle, dsn: dsn}, nil
}

// detectPerCFD runs one (QC, QV) pair per CFD — Section 4.1.
func detectPerCFD(rel *relation.Relation, sigma []*core.CFD, opts Options) (*Result, error) {
	db := sqlmini.NewDB()
	db.RegisterRelation(DataTable, rel)
	genOpts := opts.sqlOptions()

	tabNames := make([]string, len(sigma))
	for i, c := range sigma {
		name := fmt.Sprintf("T%d", i)
		tab, err := sqlgen.TableauRelation(c, name, genOpts)
		if err != nil {
			return nil, err
		}
		db.RegisterRelation(name, tab)
		tabNames[i] = name
	}
	runner, err := newRunner(db, opts)
	if err != nil {
		return nil, err
	}
	defer runner.close()

	res := &Result{PerCFD: make([]CFDViolations, len(sigma))}
	for i, c := range sigma {
		qc, err := sqlgen.QC(c, DataTable, tabNames[i], genOpts)
		if err != nil {
			return nil, err
		}
		qcRows, err := runner.query(qc)
		if err != nil {
			return nil, fmt.Errorf("detect: QC for CFD %d: %w", i, err)
		}
		constSet := make(map[int]bool)
		for _, r := range qcRows {
			id, err := atoiOrErr(r[0])
			if err != nil {
				return nil, err
			}
			constSet[id] = true
		}

		qv, err := sqlgen.QV(c, DataTable, tabNames[i], genOpts)
		if err != nil {
			return nil, err
		}
		qvRows, err := runner.query(qv)
		if err != nil {
			return nil, fmt.Errorf("detect: QV for CFD %d: %w", i, err)
		}
		keySet := make(map[string][]relation.Value)
		for _, r := range qvRows {
			key := append([]relation.Value(nil), r...)
			if len(c.LHS) == 0 {
				// Empty-LHS QV groups by pattern row; canonical key is the
				// empty X projection.
				key = nil
			}
			keySet[relation.EncodeKey(key)] = key
		}
		res.PerCFD[i] = canonicalize(constSet, keySet)
	}
	return res, nil
}

// detectMerged runs the single merged pair (QCΣ, QVΣ) — Section 4.2 —
// and demultiplexes results back to their originating CFDs through the
// pattern-tuple ids.
func detectMerged(rel *relation.Relation, sigma []*core.CFD, opts Options) (*Result, error) {
	genOpts := opts.sqlOptions()
	m, err := sqlgen.Merge(sigma, genOpts)
	if err != nil {
		return nil, err
	}
	db := sqlmini.NewDB()
	db.RegisterRelation(DataTable, rel)
	db.RegisterRelation("TX", m.TX)
	db.RegisterRelation("TY", m.TY)
	runner, err := newRunner(db, opts)
	if err != nil {
		return nil, err
	}
	defer runner.close()

	constSets := make([]map[int]bool, len(sigma))
	keySets := make([]map[string][]relation.Value, len(sigma))
	for i := range sigma {
		constSets[i] = make(map[int]bool)
		keySets[i] = make(map[string][]relation.Value)
	}

	qc, err := m.QC(DataTable, "TX", "TY", genOpts)
	if err != nil {
		return nil, err
	}
	qcRows, err := runner.query(qc)
	if err != nil {
		return nil, fmt.Errorf("detect: merged QC: %w", err)
	}
	for _, r := range qcRows {
		pid, err := atoiOrErr(r[0])
		if err != nil {
			return nil, err
		}
		rowid, err := atoiOrErr(r[1])
		if err != nil {
			return nil, err
		}
		constSets[m.Rows[pid].CFD][rowid] = true
	}

	qv, err := m.QV(DataTable, "TX", "TY", genOpts)
	if err != nil {
		return nil, err
	}
	qvRows, err := runner.query(qv)
	if err != nil {
		return nil, fmt.Errorf("detect: merged QV: %w", err)
	}
	// QVΣ columns: pid, then the masked union-X attributes in m.XAttrs
	// order. Project back to the originating CFD's own LHS order.
	xPos := make(map[string]int, len(m.XAttrs))
	for i, a := range m.XAttrs {
		xPos[a] = i
	}
	for _, r := range qvRows {
		pid, err := atoiOrErr(r[0])
		if err != nil {
			return nil, err
		}
		ci := m.Rows[pid].CFD
		c := sigma[ci]
		key := make([]relation.Value, len(c.LHS))
		for i, a := range c.LHS {
			key[i] = r[1+xPos[a]]
		}
		keySets[ci][relation.EncodeKey(key)] = key
	}

	res := &Result{PerCFD: make([]CFDViolations, len(sigma))}
	for i := range sigma {
		res.PerCFD[i] = canonicalize(constSets[i], keySets[i])
	}
	return res, nil
}
