package kamino

import "kaminotx/internal/nvm"

// Test-only access for the crash-point enumeration in crashpoints_test.go,
// which must power-fail a pool at a chosen fence without the drain
// Pool.Crash performs first, and decide line by line what survives.

// Regions returns the pool's NVM regions: main, then backup and log where
// the mode has them.
func (p *Pool) Regions() []*nvm.Region { return p.regions() }

// Reattach opens a pool over existing region images (in Regions order for
// opts.Mode) and runs crash recovery, as Open does over mapped files.
func Reattach(opts Options, regs []*nvm.Region) (*Pool, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	p := &Pool{opts: opts}
	err = p.eachRegion(func(string, int, nvm.Options) (*nvm.Region, error) {
		r := regs[0]
		regs = regs[1:]
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	if err := p.makeEngine(false); err != nil {
		return nil, err
	}
	p.root, err = p.Engine().Heap().Root()
	return p, err
}
