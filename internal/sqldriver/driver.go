// Package sqldriver exposes the sqlmini engine through the standard
// library's database/sql interface, under the driver name "cfdmem".
//
// The data source name (DSN) selects a named catalog previously registered
// with Register, so tests, tools and the detector can share in-memory
// databases:
//
//	sqldriver.Register("workload", db)          // db is a *sqlmini.DB
//	conn, _ := sql.Open("cfdmem", "workload")
//	rows, _ := conn.Query("select ... from R t, T1 tp where ...")
//
// The paper's detection technique is "SQL a DBMS can run"; routing our
// queries through database/sql keeps the reproduction honest about that
// claim — the detector uses the same API a DB2-backed implementation would.
//
// That is why the package stays although no serving path uses it: with
// detect.Options.ViaDriver set, the generated QC/QV queries go through
// database/sql's open, query and row-scan contract instead of a direct
// call into sqlmini, so a query that needs a private engine hook fails
// here first. Deleting the package would leave the claim untested.
// BenchmarkDriverOverhead prices the layer.
package sqldriver

import (
	"database/sql"
	"database/sql/driver"
	"fmt"
	"io"
	"sync"

	"repro/internal/sqlmini"
)

// DriverName is the name registered with database/sql.
const DriverName = "cfdmem"

var (
	registryMu sync.RWMutex
	registry   = make(map[string]*sqlmini.DB)
)

// Register installs a catalog under a DSN name. Re-registering a name
// replaces the previous catalog.
func Register(name string, db *sqlmini.DB) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[name] = db
}

// Unregister removes a catalog.
func Unregister(name string) {
	registryMu.Lock()
	defer registryMu.Unlock()
	delete(registry, name)
}

// Lookup returns the catalog registered under the DSN name.
func Lookup(name string) (*sqlmini.DB, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	db, ok := registry[name]
	return db, ok
}

// Open opens a database/sql handle for a registered catalog, creating and
// registering an empty catalog if the name is unknown.
func Open(name string) (*sql.DB, *sqlmini.DB, error) {
	registryMu.Lock()
	db, ok := registry[name]
	if !ok {
		db = sqlmini.NewDB()
		registry[name] = db
	}
	registryMu.Unlock()
	handle, err := sql.Open(DriverName, name)
	if err != nil {
		return nil, nil, err
	}
	return handle, db, nil
}

func init() {
	sql.Register(DriverName, &Driver{})
}

// Driver implements driver.Driver.
type Driver struct{}

// Open connects to the catalog named by the DSN.
func (*Driver) Open(dsn string) (driver.Conn, error) {
	db, ok := Lookup(dsn)
	if !ok {
		return nil, fmt.Errorf("sqldriver: no catalog registered under %q", dsn)
	}
	return &conn{db: db}, nil
}

type conn struct {
	db *sqlmini.DB
}

var (
	_ driver.Conn    = (*conn)(nil)
	_ driver.Queryer = (*conn)(nil)
	_ driver.Execer  = (*conn)(nil)
)

func (c *conn) Prepare(query string) (driver.Stmt, error) {
	return &stmt{c: c, query: query}, nil
}

func (c *conn) Close() error { return nil }

// Begin is required by driver.Conn; the engine has no transactions, and
// the detection workload never needs them.
func (c *conn) Begin() (driver.Tx, error) {
	return nil, fmt.Errorf("sqldriver: transactions are not supported")
}

// Query implements driver.Queryer so database/sql can skip Prepare.
func (c *conn) Query(query string, args []driver.Value) (driver.Rows, error) {
	if len(args) > 0 {
		return nil, fmt.Errorf("sqldriver: placeholder arguments are not supported")
	}
	res, err := c.db.Query(query)
	if err != nil {
		return nil, err
	}
	return &rows{res: res}, nil
}

// Exec implements driver.Execer.
func (c *conn) Exec(query string, args []driver.Value) (driver.Result, error) {
	if len(args) > 0 {
		return nil, fmt.Errorf("sqldriver: placeholder arguments are not supported")
	}
	n, err := c.db.Exec(query)
	if err != nil {
		return nil, err
	}
	return result{rows: int64(n)}, nil
}

type stmt struct {
	c     *conn
	query string
}

func (s *stmt) Close() error  { return nil }
func (s *stmt) NumInput() int { return 0 }

func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	return s.c.Exec(s.query, args)
}

func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	return s.c.Query(s.query, args)
}

type result struct {
	rows int64
}

func (r result) LastInsertId() (int64, error) {
	return 0, fmt.Errorf("sqldriver: LastInsertId is not supported")
}

func (r result) RowsAffected() (int64, error) { return r.rows, nil }

type rows struct {
	res *sqlmini.Result
	pos int
}

func (r *rows) Columns() []string { return r.res.Cols }
func (r *rows) Close() error      { return nil }

func (r *rows) Next(dest []driver.Value) error {
	if r.pos >= len(r.res.Rows) {
		return io.EOF
	}
	for i, v := range r.res.Rows[r.pos] {
		dest[i] = v
	}
	r.pos++
	return nil
}
