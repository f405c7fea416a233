package metrics

// FanoutQuery is the spectator's observation query: a windowed divisible
// aggregate, the bread-and-butter spectator question ("how much is
// happening here?"), answerable by the range tree or by a scan. Exported
// so the repository benchmark and the tests drive the same query.
const FanoutQuery = `
aggregate Zone(u, x, y, r) :=
  count(*) as n, sum(e.health) as hp
  over e where e.posx >= x - r and e.posx <= x + r
    and e.posy >= y - r and e.posy <= y + r;`
