package kamino

import "kaminotx/internal/nvm"

// Test-only access for the crash-point enumeration in crashpoints_test.go,
// which must power-fail a pool at a chosen fence without the drain
// Pool.Crash performs first, and decide line by line what survives.

// Regions returns the pool's NVM regions: main, then backup and log where
// the mode has them.
func (p *Pool) Regions() []*nvm.Region {
	var out []*nvm.Region
	for _, r := range []*nvm.Region{p.mainReg, p.backupReg, p.logReg} {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// Reattach opens a pool over existing region images (in Regions order for
// opts.Mode) and runs crash recovery, as Open does over images loaded from
// files.
func Reattach(opts Options, regs []*nvm.Region) (*Pool, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	p := &Pool{opts: opts, mainReg: regs[0]}
	regs = regs[1:]
	if opts.backupSize() > 0 {
		p.backupReg, regs = regs[0], regs[1:]
	}
	if opts.Mode != ModeNoLog {
		p.logReg = regs[0]
	}
	if err := p.makeEngine(false); err != nil {
		return nil, err
	}
	p.root, err = p.Engine().Heap().Root()
	return p, err
}
