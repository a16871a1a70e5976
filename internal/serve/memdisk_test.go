package serve_test

import (
	"easybo/internal/serve"
	"easybo/internal/serve/wal"
)

func init() {
	serve.NewMemDisk = func(compactEvery int) serve.MemDisk {
		m := wal.NewMemFS()
		return serve.MemDisk{
			Open: func() serve.Store {
				st, err := wal.OpenMem(m, wal.Options{CompactEvery: compactEvery})
				if err != nil {
					panic(err)
				}
				return st
			},
			Sum: m.Sum,
		}
	}
}
