package bench

import (
	"fmt"
	"time"

	"kaminotx/kamino"
)

// Table1 reproduces Table 1: servers, storage requirement and transaction
// latency formulas for the four replication schemes, instantiated with
// measured values of the paper's three latency components:
//
//	lt — local transaction execution latency (measured: one in-place
//	     update transaction, no copies, no network)
//	lc — data copy latency (measured: one undo-logged update minus lt)
//	ln — network hop latency (the harness's configured hop)
//
// Expected shape: eliminating lc from every replica's critical path is the
// whole difference between the rows; Kamino-Tx-Amortized (the f+2 chain)
// pays one extra round only for dependent transactions.
func Table1(cfg Config) error {
	cfg = cfg.WithDefaults()
	lt, lc, err := cfg.measureLatencyComponents()
	if err != nil {
		return err
	}
	ln := chainHopLatency

	header(cfg.Out, "Table 1: replication schemes compared (f failures tolerated)",
		fmt.Sprintf("measured components: lt=%.2fµs (execute), lc=%.2fµs (copy), ln=%.2fµs (network hop)",
			us(lt), us(lc), us(ln)))

	f := float64(chainF)
	rows := []struct {
		name     string
		servers  string
		storage  string
		depLat   float64
		indepLat float64
	}{
		{
			"Traditional Chain", "f+1", "(f+1) x dataSize",
			(f + 1) * (us(lc) + us(ln) + us(lt)),
			(f + 1) * (us(lc) + us(ln) + us(lt)),
		},
		{
			"Kamino-Tx-Simple Chain", "f+1", "2(f+1) x dataSize",
			(f + 1) * (us(ln) + us(lt)),
			(f + 1) * (us(ln) + us(lt)),
		},
		{
			"Kamino-Tx-Dynamic Chain", "f+1", "(1+a)(f+1) x dataSize",
			(f + 1) * (us(ln) + us(lt)),
			(f + 1) * (us(ln) + us(lt)),
		},
		{
			"Kamino-Tx-Amortized Chain", "f+2", "(f+2+a) x dataSize",
			2 * (f + 1) * (us(ln) + us(lt)),
			(f + 1) * (us(ln) + us(lt)),
		},
	}
	fmt.Fprintf(cfg.Out, "%-26s %8s %24s %16s %16s\n",
		"scheme", "servers", "storage", "dependent (µs)", "independent (µs)")
	for _, r := range rows {
		fmt.Fprintf(cfg.Out, "%-26s %8s %24s %16.2f %16.2f\n",
			r.name, r.servers, r.storage, r.depLat, r.indepLat)
	}
	fmt.Fprintf(cfg.Out, "(f=%d, a=alpha in (0,1]; latency formulas from the paper instantiated with measured lt/lc/ln)\n", chainF)
	return nil
}

// measureLatencyComponents measures lt (in-place transaction execution)
// and lc (the additional critical-path copy cost undo logging pays) with
// single-threaded 1 KiB updates.
func (c Config) measureLatencyComponents() (lt, lc time.Duration, err error) {
	inplaceLat, err := c.worstCaseRun(kamino.ModeSimple, c.ValueSize)
	if err != nil {
		return 0, 0, err
	}
	undoLat, err := c.worstCaseRun(kamino.ModeUndo, c.ValueSize)
	if err != nil {
		return 0, 0, err
	}
	lt = inplaceLat
	lc = undoLat - inplaceLat
	if lc < 0 {
		lc = 0
	}
	return lt, lc, nil
}
