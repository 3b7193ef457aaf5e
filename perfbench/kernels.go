package main

import (
	"fmt"
	"math/big"
	"math/rand"
	"time"

	"repro/internal/dj"
	"repro/internal/paillier"
	"repro/internal/zmath"
)

// kernelIters is the per-kernel sample count; each kernel reports the
// median of its per-call times.
const kernelIters = 300

// kernels times the public crypto kernels on seeded keys and operands
// at the run's key size: Paillier and Damgård-Jurik (s=2, as the clouds
// use it) encryption and decryption, and a full-width modexp in Z_{N^2}
// through the Montgomery engine. Values are microseconds.
func kernels(seed int64) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(seed*31 + 5))
	sk, err := paillier.GenerateKey(rng, keyBits)
	if err != nil {
		return nil, fmt.Errorf("kernel key: %w", err)
	}
	pk := &sk.PublicKey
	djSK, err := dj.NewPrivateKey(sk, 2)
	if err != nil {
		return nil, fmt.Errorf("kernel dj key: %w", err)
	}
	djPK := &djSK.PublicKey
	msg := new(big.Int).Rand(rng, pk.N)
	ct, err := pk.Encrypt(msg)
	if err != nil {
		return nil, err
	}
	djCT, err := djPK.Encrypt(msg)
	if err != nil {
		return nil, err
	}
	base, err := zmath.RandUnit(rng, pk.N2)
	if err != nil {
		return nil, err
	}
	exp := new(big.Int).Rand(rng, pk.N2)
	eng := pk.EngineN2()
	if eng == nil {
		return nil, fmt.Errorf("kernel key carries no Montgomery engine")
	}
	ops := []struct {
		name string
		f    func() error
	}{
		{"paillier.encrypt_us", func() error { _, err := pk.Encrypt(msg); return err }},
		{"paillier.decrypt_us", func() error { _, err := sk.Decrypt(ct); return err }},
		{"dj.encrypt_us", func() error { _, err := djPK.Encrypt(msg); return err }},
		{"dj.decrypt_us", func() error { _, err := djSK.Decrypt(djCT); return err }},
		{"zmath.modexp_us", func() error { eng.ExpMod(base, exp); return nil }},
	}
	out := map[string]float64{}
	for _, op := range ops {
		if err := op.f(); err != nil { // warm-up
			return nil, fmt.Errorf("%s: %w", op.name, err)
		}
		times := make([]float64, kernelIters)
		for i := range times {
			t := time.Now()
			if err := op.f(); err != nil {
				return nil, fmt.Errorf("%s: %w", op.name, err)
			}
			times[i] = float64(time.Since(t)) / float64(time.Microsecond)
		}
		out[op.name] = median(times)
	}
	return out, nil
}
